#include "compiler/compiler.h"

#include <sstream>
#include <string>

#include "hdfg/translator.h"
#include "strider/assembler.h"
#include "strider/codegen.h"

namespace dana::compiler {

std::string CompiledUdf::CatalogBlob() const {
  std::ostringstream os;
  os << "udf: " << udf_name << "\n";
  os << "fpga: " << fpga.name << "\n";
  os << "design: " << design.ToString() << "\n";
  os << "page: size=" << page_layout.page_size
     << " tuples/page=" << shape.tuples_per_page << "\n";
  os << "--- strider program ---\n" << strider::Disassemble(strider_program);
  os << "--- execution engine (" << ac_programs.size() << " clusters) ---\n";
  for (size_t ac = 0; ac < ac_programs.size(); ++ac) {
    os << "AC" << ac << ": " << ac_programs[ac].instructions.size()
       << " instructions\n";
  }
  return os.str();
}

Result<CompiledUdf> UdfCompiler::Compile(const dsl::Algo& algo,
                                         const storage::PageLayout& layout,
                                         const WorkloadShape& shape) const {
  CompiledUdf out;
  out.udf_name = algo.name();
  out.page_layout = layout;
  out.fpga = fpga_;
  out.shape = shape;

  // Front end: DSL -> hDFG (§4.4).
  DANA_ASSIGN_OR_RETURN(out.graph, hdfg::Translator::Translate(algo));

  // Every design point keeps a float4 image of the model per thread in
  // BRAM, so a model that alone outsizes BRAM fits none: fail before
  // lowering, which for such a model takes far longer than the check.
  uint64_t model_elements = 0;
  for (const auto& var : out.graph.model_vars) {
    model_elements += hdfg::NumElements(var->dims);
  }
  if (4 * model_elements > fpga_.bram_bytes) {
    return Status::ResourceExhausted(
        "model of " + std::to_string(model_elements) + " elements needs " +
        std::to_string(4 * model_elements) + " bytes of BRAM, but " +
        fpga_.name + " has " + std::to_string(fpga_.bram_bytes));
  }

  // Lowering: hDFG -> scalar sub-node program (§6.2).
  DANA_ASSIGN_OR_RETURN(out.program, LowerGraph(out.graph));

  // Consistency: tuple width implied by the program vs the page geometry.
  const uint64_t tuple_bytes = 4 * out.program.TupleElements();
  if (shape.tuple_payload_bytes != 0 &&
      shape.tuple_payload_bytes != tuple_bytes) {
    return Status::InvalidArgument(
        "algo consumes " + std::to_string(tuple_bytes) +
        "-byte tuples but the table stores " +
        std::to_string(shape.tuple_payload_bytes) + "-byte payloads");
  }

  // Hardware generation + design space exploration (§6.1).
  HardwareGenerator hw(fpga_, hw_options_);
  DANA_ASSIGN_OR_RETURN(out.design, hw.Generate(out.program, layout, shape));

  // Strider program for the page layout (§5.1.2).
  DANA_ASSIGN_OR_RETURN(out.strider_program,
                        strider::BuildPageWalkProgram(layout));

  // Execution-engine instruction streams for one thread (§6.2).
  DANA_ASSIGN_OR_RETURN(
      out.ac_programs,
      EmitAcPrograms(out.program.tuple_ops, out.design.tuple_schedule,
                     ValueRegion::kTuple, out.design.acs_per_thread));
  return out;
}

}  // namespace dana::compiler
