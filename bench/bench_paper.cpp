// The paper scoreboard: reproduces every figure and table of Mahajan et
// al., PVLDB 11(11) that the simulator models (Figures 8-16, Tables 3-5),
// the §7 page-size study and two design ablations, one figure spec each.
//
//   bench_paper                   # all figures, then the paper_err table
//   bench_paper --figure fig11    # one figure
//
// Each figure prints its paper-vs-ours table and writes
// BENCH_paper_<figure>.json (into DANA_BENCH_JSON_DIR, default cwd): every
// number it prints at full precision, the published values beside ours,
// and per series with published values its paper_err, the geomean over
// the series' cells of max(ours/paper, paper/ours). Every cell is priced
// on the harness's shape instances through DanaSystem::TimeCompiled, so
// the files are deterministic; tests/golden/paper/ pins each one.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_harness.h"
#include "common/stats.h"
#include "common/table_printer.h"

using namespace dana;

namespace {

using bench::Harness;
using runtime::CacheState;
constexpr CacheState kWarm = CacheState::kWarm;

/// One figure's BENCH_paper_<figure>.json.
class Scoreboard {
 public:
  explicit Scoreboard(std::string figure)
      : figure_(std::move(figure)), stats_("paper_" + figure_) {}

  /// Records a number the figure prints.
  void Add(const std::string& name, double value) {
    stats_.Add(name, value, obs::Direction::kInfo);
  }

  /// Records our `<series>.<label>` cell beside its published value.
  void Cell(const std::string& series, const std::string& label, double ours,
            double paper) {
    Add(series + "." + label, ours);
    Add(series + "." + label + ".paper", paper);
    errors_[series].push_back(std::max(ours / paper, paper / ours));
  }

  /// Adds `paper_err.<series>` per series, and the figure-wide `paper_err`
  /// over all its cells, as gated metrics and as rows of `summary`; then
  /// writes the file.
  Status Write(TablePrinter* summary) {
    std::vector<double> all;
    for (const auto& [series, errors] : errors_) {
      AddErr("paper_err." + series, series, errors, summary);
      all.insert(all.end(), errors.begin(), errors.end());
    }
    if (errors_.size() > 1) AddErr("paper_err", "all", all, summary);
    return stats_.Write().status();
  }

 private:
  void AddErr(const std::string& name, const std::string& series,
              const std::vector<double>& errors, TablePrinter* summary) {
    stats_.Add(name, GeoMean(errors), obs::Direction::kLowerIsBetter);
    summary->AddRow({figure_, series, std::to_string(errors.size()),
                     TablePrinter::Fmt(GeoMean(errors), 2)});
  }

  std::string figure_;
  obs::StatsWriter stats_;
  std::map<std::string, std::vector<double>> errors_;
};

/// Figures 8-10: end-to-end speedup over MADlib+PostgreSQL of
/// MADlib+Greenplum (8 segments) and DAnA, warm (a) and cold (b) cache.
Status SpeedupFigure(Harness& h, Scoreboard& s,
                     const std::vector<ml::Workload>& workloads) {
  for (CacheState cache : {kWarm, CacheState::kCold}) {
    const bool warm = cache == kWarm;
    const std::string c = warm ? "warm" : "cold";
    std::printf("--- %s cache ---\n", c.c_str());
    TablePrinter table({"Workload", "GP paper", "GP ours", "DAnA paper",
                        "DAnA ours", "DAnA runtime"});
    std::vector<double> gp_ours, dana_ours, gp_paper, dana_paper;
    for (const auto& w : workloads) {
      DANA_ASSIGN_OR_RETURN(auto pg, h.RunPg(w.id, cache));
      DANA_ASSIGN_OR_RETURN(auto gp, h.RunGp(w.id, cache));
      DANA_ASSIGN_OR_RETURN(auto dana, h.RunDana(w.id, cache));
      gp_ours.push_back(pg.total / gp.total);
      dana_ours.push_back(pg.total / dana.total);
      gp_paper.push_back(warm ? w.paper.gp_speedup_warm
                              : w.paper.gp_speedup_cold);
      dana_paper.push_back(warm ? w.paper.dana_speedup_warm
                                : w.paper.dana_speedup_cold);
      s.Cell(c + ".gp", w.id, gp_ours.back(), gp_paper.back());
      s.Cell(c + ".dana", w.id, dana_ours.back(), dana_paper.back());
      s.Add(c + ".dana_s." + w.id, dana.total.seconds());
      table.AddRow({w.display_name, TablePrinter::Speedup(gp_paper.back()),
                    TablePrinter::Speedup(gp_ours.back()),
                    TablePrinter::Speedup(dana_paper.back()),
                    TablePrinter::Speedup(dana_ours.back()),
                    dana.total.ToString()});
    }
    table.AddSeparator();
    table.AddRow({"Geomean", TablePrinter::Speedup(GeoMean(gp_paper)),
                  TablePrinter::Speedup(GeoMean(gp_ours)),
                  TablePrinter::Speedup(GeoMean(dana_paper)),
                  TablePrinter::Speedup(GeoMean(dana_ours)), ""});
    table.Print();
    s.Add(c + ".gp.geomean", GeoMean(gp_ours));
    s.Add(c + ".dana.geomean", GeoMean(dana_ours));
  }
  return Status::OK();
}

Status Fig8(Harness& h, Scoreboard& s) {
  return SpeedupFigure(h, s, ml::PublicWorkloads());
}
Status Fig9(Harness& h, Scoreboard& s) {
  return SpeedupFigure(h, s, ml::SyntheticNominalWorkloads());
}
Status Fig10(Harness& h, Scoreboard& s) {
  return SpeedupFigure(h, s, ml::SyntheticExtensiveWorkloads());
}

/// Figure 11: DAnA with vs without Striders, warm cache. "Without
/// Striders" is the alternate design the paper evaluates: the CPU extracts
/// and transforms each tuple and ships it to the engines one DMA at a
/// time, so access and execution cannot interleave.
Status Fig11(Harness& h, Scoreboard& s) {
  TablePrinter table({"Workload", "w/o Strider paper", "w/o Strider ours",
                      "with Strider paper", "with Strider ours"});
  std::vector<double> wo_paper, wo_ours, w_paper, w_ours;
  accel::RunOptions bypass;
  bypass.strider_bypass = true;
  for (const auto& w : ml::AllWorkloads()) {
    DANA_ASSIGN_OR_RETURN(auto pg, h.RunPg(w.id, kWarm));
    DANA_ASSIGN_OR_RETURN(auto with, h.RunDana(w.id, kWarm));
    DANA_ASSIGN_OR_RETURN(auto without, h.RunDana(w.id, kWarm, bypass));
    wo_ours.push_back(pg.total / without.total);
    w_ours.push_back(pg.total / with.total);
    wo_paper.push_back(w.paper.dana_wo_strider);
    w_paper.push_back(w.paper.dana_speedup_warm);
    s.Cell("without_strider", w.id, wo_ours.back(), wo_paper.back());
    s.Cell("with_strider", w.id, w_ours.back(), w_paper.back());
    table.AddRow({w.display_name, TablePrinter::Speedup(wo_paper.back()),
                  TablePrinter::Speedup(wo_ours.back()),
                  TablePrinter::Speedup(w_paper.back()),
                  TablePrinter::Speedup(w_ours.back())});
  }
  table.AddSeparator();
  table.AddRow({"Geomean", TablePrinter::Speedup(GeoMean(wo_paper)),
                TablePrinter::Speedup(GeoMean(wo_ours)),
                TablePrinter::Speedup(GeoMean(w_paper)),
                TablePrinter::Speedup(GeoMean(w_ours))});
  table.Print();
  std::printf(
      "\nPaper: Striders amplify raw-acceleration benefits by 4.6x on "
      "average (10.8x vs 2.3x geomean). Ours: %.1fx (%.1fx vs %.1fx).\n",
      GeoMean(w_ours) / GeoMean(wo_ours), GeoMean(w_ours), GeoMean(wo_ours));
  return Status::OK();
}

/// Figure 12: accelerator runtime with an increasing merge coefficient
/// (thread count), normalized to the single-thread design, with the
/// achieved compute utilization. The paper's runtimes are read off its
/// four panels (0: outside the panel's x-range).
struct MergeSeries {
  const char* id;
  double runtime[6];  // coef 1, 4, 16, 64, 256, 1024 (relative to coef=1)
};
const MergeSeries kFig12Paper[] = {
    {"rs_svm", {1.0, 0.55, 0.30, 0.22, 0.20, 0.20}},
    {"rs_lr", {1.0, 0.55, 0.30, 0.22, 0.20, 0.20}},
    {"netflix", {1.0, 1.0, 1.0, 0, 0, 0}},
    {"patient", {1.0, 0.45, 0.30, 0.28, 0.28, 0.28}},
};

Status Fig12(Harness& h, Scoreboard& s) {
  const uint32_t coefs[] = {1, 4, 16, 64, 256, 1024};
  for (const auto& series : kFig12Paper) {
    DANA_ASSIGN_OR_RETURN(runtime::WorkloadInstance * instance,
                          h.Instance(series.id));
    const ml::Workload& w = instance->workload();
    TablePrinter table({"Merge coef", "Threads", "Paper runtime",
                        "Our runtime", "Utilization"});
    double base = 0;
    for (size_t c = 0; c < 6; ++c) {
      // Rebuild the UDF with this merge coefficient and instantiate as
      // many threads as the fabric allows (the sensitivity study sweeps
      // the thread count directly, paper 7.2).
      ml::Workload variant = w;
      variant.params.merge_coef = coefs[c];
      compiler::HardwareGenerator::Options hw;
      hw.force_threads =
          std::min(coefs[c], runtime::DefaultFpga().max_compute_units /
                                 engine::kAusPerAc);
      DANA_ASSIGN_OR_RETURN(auto udf, h.Compile(variant, hw));
      DANA_ASSIGN_OR_RETURN(auto r, h.RunDanaCompiled(udf, w.id, kWarm));
      const double fpga = r.compute.seconds();
      if (c == 0) base = fpga;
      // Achieved compute utilization: scalar ops in flight vs fabric.
      const auto& d = udf.design;
      const double per_thread_par =
          d.tuple_schedule.makespan == 0
              ? 0
              : static_cast<double>(d.tuple_schedule.op_count) /
                    d.tuple_schedule.makespan;
      const double util =
          std::min(1.0, per_thread_par * d.num_threads /
                            static_cast<double>(udf.fpga.max_compute_units));
      const std::string coef = "coef" + std::to_string(coefs[c]);
      if (series.runtime[c] > 0) {
        s.Cell(w.id, coef, fpga / base, series.runtime[c]);
      } else {
        s.Add(w.id + "." + coef, fpga / base);
      }
      s.Add(w.id + "." + coef + ".threads", d.num_threads);
      s.Add(w.id + "." + coef + ".utilization", util);
      std::string paper = series.runtime[c] > 0
                              ? TablePrinter::Fmt(series.runtime[c], 2) + "x"
                              : "-";
      table.AddRow({std::to_string(coefs[c]), std::to_string(d.num_threads),
                    paper, TablePrinter::Fmt(fpga / base, 2) + "x",
                    TablePrinter::Fmt(util * 100, 0) + "%"});
    }
    std::printf("%s (%s):\n", w.display_name.c_str(),
                ml::AlgoKindName(w.kind).c_str());
    table.Print();
    std::printf("\n");
  }
  return Status::OK();
}

/// Figure 13: MADlib+Greenplum with 4 and 16 segments and single-threaded
/// PostgreSQL, publicly available datasets, each as runtime speedup
/// relative to 8 segments.
struct SegmentRow {
  const char* id;
  double pg, seg4, seg16;
};
const SegmentRow kFig13Paper[] = {
    {"rs_lr", 0.31, 0.87, 0.69},  {"wlan", 1.03, 1.21, 0.95},
    {"rs_svm", 0.42, 0.96, 1.26}, {"netflix", 1.14, 1.02, 0.90},
    {"patient", 0.42, 0.97, 0.73}, {"blog", 0.39, 0.80, 0.95},
};

Status Fig13(Harness& h, Scoreboard& s) {
  TablePrinter table({"Workload", "PG paper", "PG ours", "4seg paper",
                      "4seg ours", "16seg paper", "16seg ours"});
  std::vector<double> ours[3], paper[3];
  const char* series[3] = {"pg", "seg4", "seg16"};
  for (const auto& row : kFig13Paper) {
    DANA_ASSIGN_OR_RETURN(auto pg, h.RunPg(row.id, kWarm));
    DANA_ASSIGN_OR_RETURN(auto g4, h.RunGp(row.id, kWarm, 4));
    DANA_ASSIGN_OR_RETURN(auto g8, h.RunGp(row.id, kWarm, 8));
    DANA_ASSIGN_OR_RETURN(auto g16, h.RunGp(row.id, kWarm, 16));
    const double rel[3] = {g8.total / pg.total, g8.total / g4.total,
                           g8.total / g16.total};
    const double published[3] = {row.pg, row.seg4, row.seg16};
    std::vector<std::string> cells = {ml::FindWorkload(row.id)->display_name};
    for (int i = 0; i < 3; ++i) {
      ours[i].push_back(rel[i]);
      paper[i].push_back(published[i]);
      s.Cell(series[i], row.id, rel[i], published[i]);
      cells.push_back(TablePrinter::Fmt(published[i], 2));
      cells.push_back(TablePrinter::Fmt(rel[i], 2));
    }
    table.AddRow(cells);
  }
  table.AddSeparator();
  std::vector<std::string> geomeans = {"Geomean"};
  for (int i = 0; i < 3; ++i) {
    geomeans.push_back(TablePrinter::Fmt(GeoMean(paper[i]), 2));
    geomeans.push_back(TablePrinter::Fmt(GeoMean(ours[i]), 2));
  }
  table.AddRow(geomeans);
  table.Print();
  std::printf(
      "\nShape check: 8 segments performs best; 16 segments regresses "
      "(paper geomean 0.89, ours %.2f).\n",
      GeoMean(ours[2]));
  return Status::OK();
}

/// Figure 14: accelerator (FPGA) time with the host link bandwidth scaled
/// 0.25x .. 4x, as speedup over the baseline bandwidth. The paper's shape:
/// larger workloads become bandwidth bound (up to ~2.1x at 4x for S/E
/// Linear) except the compute-heavy LRMF workloads.
struct BandwidthRow {
  const char* id;
  double s[4];  // 0.25x, 0.5x, 2x, 4x
};
const BandwidthRow kFig14Paper[] = {
    {"rs_lr", {0.7, 0.9, 1.1, 1.13}},   {"wlan", {1.0, 1.0, 1.0, 1.0}},
    {"rs_svm", {0.6, 0.8, 1.1, 1.2}},   {"netflix", {0.8, 0.9, 1.1, 1.1}},
    {"patient", {0.9, 1.0, 1.0, 1.0}},  {"blog", {1.0, 1.0, 1.0, 1.0}},
    {"sn_logistic", {0.4, 0.7, 1.4, 1.7}}, {"sn_svm", {0.5, 0.7, 1.2, 1.4}},
    {"sn_lrmf", {0.9, 1.0, 1.0, 1.0}},  {"sn_linear", {0.3, 0.6, 1.5, 2.1}},
    {"se_logistic", {0.4, 0.7, 1.4, 1.8}}, {"se_svm", {0.4, 0.7, 1.3, 1.6}},
    {"se_lrmf", {1.0, 1.0, 1.0, 1.0}},  {"se_linear", {0.3, 0.6, 1.6, 2.1}},
};

Status Fig14(Harness& h, Scoreboard& s) {
  const double scales[4] = {0.25, 0.5, 2.0, 4.0};
  const char* series[4] = {"bw0.25", "bw0.5", "bw2", "bw4"};
  TablePrinter table({"Workload", "0.25x paper", "0.25x ours", "0.5x paper",
                      "0.5x ours", "2x paper", "2x ours", "4x paper",
                      "4x ours"});
  for (const auto& row : kFig14Paper) {
    DANA_ASSIGN_OR_RETURN(auto base, h.RunDana(row.id, kWarm));
    std::vector<std::string> cells = {ml::FindWorkload(row.id)->display_name};
    for (int i = 0; i < 4; ++i) {
      accel::RunOptions opt;
      opt.bandwidth_scale = scales[i];
      DANA_ASSIGN_OR_RETURN(auto r, h.RunDana(row.id, kWarm, opt));
      // FPGA-time speedup relative to baseline bandwidth.
      const double speedup = base.compute / r.compute;
      s.Cell(series[i], row.id, speedup, row.s[i]);
      cells.push_back(TablePrinter::Fmt(row.s[i], 2));
      cells.push_back(TablePrinter::Fmt(speedup, 2));
    }
    table.AddRow(cells);
  }
  table.Print();
  std::printf(
      "\nShape check: LRMF workloads are compute-bound (flat rows); wide "
      "linear/logistic synthetic workloads are bandwidth-bound.\n");
  return Status::OK();
}

/// Figure 15: out-of-RDBMS libraries (Liblinear, DimmWitted): (a) the
/// runtime split into export / transform / analytics, (c) end-to-end
/// speedup over MADlib+PostgreSQL. The libraries' compute speedup over
/// MADlib (Fig 15b) is a model input taken from the paper, since the
/// closed binaries cannot run here; export, transform and the end-to-end
/// composition are our models' outputs.
struct LibRow {
  const char* id;
  const char* lib;
  double compute_speedup;   // Fig 15b, model input
  double paper_end_to_end;  // Fig 15c
  double paper_export_pct;  // Fig 15a
};
const LibRow kFig15Rows[] = {
    {"rs_lr", "Liblinear", 2.90, 0.375, 84.0},
    {"rs_lr", "DimmWitted", 0.56, 0.25, 56.7},
    {"wlan", "Liblinear", 28.84, 6.29, 83.8},
    {"wlan", "DimmWitted", 7.74, 4.70, 62.6},
    {"sn_logistic", "Liblinear", 15.44, 5.53, 57.4},
    {"sn_logistic", "DimmWitted", 20.90, 7.35, 64.7},
    {"rs_svm", "Liblinear", 0.16, 0.14, 69.2},
    {"rs_svm", "DimmWitted", 0.10, 0.12, 57.9},
    {"sn_svm", "Liblinear", 0.10, 0.10, 65.5},
    {"sn_svm", "DimmWitted", 0.10, 0.10, 65.6},
    {"patient", "DimmWitted", 3.90, 0.51, 74.6},
    {"blog", "DimmWitted", 1.90, 0.52, 86.2},
    {"sn_linear", "DimmWitted", 10.50, 5.50, 45.5},
};

Status Fig15(Harness& h, Scoreboard& s) {
  TablePrinter table({"Workload", "Library", "Export%", "Transform%",
                      "Compute%", "paper Export%", "E2E paper", "E2E ours",
                      "DAnA ours"});
  for (const auto& row : kFig15Rows) {
    DANA_ASSIGN_OR_RETURN(runtime::WorkloadInstance * instance,
                          h.Instance(row.id));
    runtime::ExternalLibrary lib(h.cost(), row.lib, row.compute_speedup);
    DANA_ASSIGN_OR_RETURN(auto phases, lib.Run(instance));
    DANA_ASSIGN_OR_RETURN(auto pg, h.RunPg(row.id, kWarm));
    DANA_ASSIGN_OR_RETURN(auto dana, h.RunDana(row.id, kWarm));
    const double total = phases.Total().seconds();
    const double pct[3] = {100 * phases.export_time.seconds() / total,
                           100 * phases.transform_time.seconds() / total,
                           100 * phases.compute_time.seconds() / total};
    const double e2e = pg.total / phases.Total();
    const std::string label = std::string(row.id) + "." + row.lib;
    s.Cell("export_pct", label, pct[0], row.paper_export_pct);
    s.Cell("e2e", label, e2e, row.paper_end_to_end);
    s.Add("transform_pct." + label, pct[1]);
    s.Add("compute_pct." + label, pct[2]);
    s.Add("dana." + label, pg.total / dana.total);
    table.AddRow({instance->workload().display_name, row.lib,
                  TablePrinter::Fmt(pct[0], 1), TablePrinter::Fmt(pct[1], 1),
                  TablePrinter::Fmt(pct[2], 1),
                  TablePrinter::Fmt(row.paper_export_pct, 1),
                  TablePrinter::Speedup(row.paper_end_to_end, 2),
                  TablePrinter::Speedup(e2e, 2),
                  TablePrinter::Speedup(pg.total / dana.total, 2)});
  }
  table.Print();
  std::printf(
      "\nShape check: exporting data out of the RDBMS dominates (Fig 15a); "
      "DAnA needs no export and stays uniformly faster (Fig 15c).\n");
  return Status::OK();
}

/// Figure 16: DAnA compute-time speedup over TABLA, modelled with the
/// limitations the paper describes: a single-threaded accelerator whose
/// tuples the CPU extracts and transforms (no Striders, no access/execute
/// interleaving).
Status Fig16(Harness& h, Scoreboard& s) {
  TablePrinter table({"Workload", "Paper speedup", "Our speedup",
                      "TABLA time", "DAnA time"});
  std::vector<double> paper, ours;
  const runtime::TablaSystem tabla(h.cost(), runtime::DefaultFpga());
  for (const auto& w : ml::AllWorkloads()) {
    if (w.paper.tabla_compute_ratio <= 0) continue;  // Fig 16 covers 10
    DANA_ASSIGN_OR_RETURN(runtime::WorkloadInstance * instance,
                          h.Instance(w.id));
    DANA_ASSIGN_OR_RETURN(SimTime tabla_time,
                          tabla.ComputeTimePerEpoch(instance));
    DANA_ASSIGN_OR_RETURN(auto dana, h.RunDana(w.id, kWarm));
    // Compute-only comparison per epoch: DAnA's FPGA time vs TABLA's
    // compute path (both systems run the same SGD pass structure).
    const SimTime dana_per_epoch =
        dana.compute / std::max<uint32_t>(dana.epochs, 1);
    paper.push_back(w.paper.tabla_compute_ratio);
    ours.push_back(tabla_time / dana_per_epoch);
    s.Cell("tabla", w.id, ours.back(), paper.back());
    s.Add("tabla_s." + w.id, tabla_time.seconds());
    s.Add("dana_s." + w.id, dana_per_epoch.seconds());
    table.AddRow({w.display_name, TablePrinter::Speedup(paper.back()),
                  TablePrinter::Speedup(ours.back()), tabla_time.ToString(),
                  dana_per_epoch.ToString()});
  }
  table.AddSeparator();
  table.AddRow({"Geomean", TablePrinter::Speedup(GeoMean(paper)),
                TablePrinter::Speedup(GeoMean(ours)), "", ""});
  table.Print();
  std::printf(
      "\nPaper attributes DAnA's 4.7x geomean advantage to Strider "
      "interleaving and multi-threaded execution engines.\n");
  return Status::OK();
}

/// Table 3 (dataset and model inventory) and Table 4 (FPGA spec). Tables
/// are generated at a reduced tuple count; the scale column is the
/// virtual multiplier the timing models apply to report at paper size.
Status Table3(Harness& h, Scoreboard& s) {
  TablePrinter table({"Workload", "Algorithm", "Model topology",
                      "Paper tuples", "Our tuples", "Scale", "Our pages",
                      "Our size (MB)", "Paper size (MB)"});
  for (const auto& w : ml::AllWorkloads()) {
    DANA_ASSIGN_OR_RETURN(runtime::WorkloadInstance * instance,
                          h.Instance(w.id));
    const auto& t = instance->table();
    std::string topo = std::to_string(w.params.dims);
    if (w.kind == ml::AlgoKind::kLowRankMF) {
      topo = std::to_string(w.tuples) + ", " + std::to_string(w.params.dims) +
             ", " + std::to_string(w.params.rank);
    }
    s.Add(w.id + ".tuples", w.tuples);
    s.Add(w.id + ".tuples.paper", w.paper.tuples);
    s.Add(w.id + ".scale", w.scale);
    s.Add(w.id + ".pages", t.num_pages());
    s.Add(w.id + ".size_mb", t.SizeBytes() / 1e6);
    s.Add(w.id + ".size_mb.paper", w.paper.size_mb);
    table.AddRow({w.display_name, ml::AlgoKindName(w.kind), topo,
                  std::to_string(w.paper.tuples), std::to_string(w.tuples),
                  TablePrinter::Fmt(w.scale, 1) + "x",
                  std::to_string(t.num_pages()),
                  TablePrinter::Fmt(t.SizeBytes() / 1e6, 1),
                  TablePrinter::Fmt(w.paper.size_mb, 0)});
  }
  table.Print();

  std::printf("\nTable 4: FPGA specification used by the simulator\n");
  const compiler::FpgaSpec fpga = runtime::DefaultFpga();
  TablePrinter t4({"FPGA", "LUTs", "Flip-Flops", "Frequency", "BRAM",
                   "# DSPs", "Host link"});
  t4.AddRow({fpga.name, std::to_string(fpga.luts / 1000) + " K",
             std::to_string(fpga.flip_flops / 1000) + " K",
             TablePrinter::Fmt(fpga.freq_hz / 1e6, 0) + " MHz",
             std::to_string(fpga.bram_bytes >> 20) + " MB",
             std::to_string(fpga.dsp_slices),
             TablePrinter::Fmt(fpga.axi_bytes_per_sec / 1e9, 1) + " GB/s"});
  t4.Print();
  return Status::OK();
}

/// Table 5: absolute end-to-end runtimes of MADlib+PostgreSQL,
/// MADlib+Greenplum and DAnA+PostgreSQL, warm cache. They depend on the
/// calibrated CPU cost model and the assumed epoch counts; the shape to
/// check is each column's ordering and rough magnitude.
Status Table5(Harness& h, Scoreboard& s) {
  TablePrinter table({"Workload", "PG paper", "PG ours", "GP paper",
                      "GP ours", "DAnA paper", "DAnA ours"});
  for (const auto& w : ml::AllWorkloads()) {
    DANA_ASSIGN_OR_RETURN(auto pg, h.RunPg(w.id, kWarm));
    DANA_ASSIGN_OR_RETURN(auto gp, h.RunGp(w.id, kWarm));
    DANA_ASSIGN_OR_RETURN(auto dana, h.RunDana(w.id, kWarm));
    const SimTime ours[3] = {pg.total, gp.total, dana.total};
    const double paper[3] = {w.paper.pg_runtime_s, w.paper.gp_runtime_s,
                             w.paper.dana_runtime_s};
    const char* series[3] = {"pg_s", "gp_s", "dana_s"};
    std::vector<std::string> cells = {w.display_name};
    for (int i = 0; i < 3; ++i) {
      s.Cell(series[i], w.id, ours[i].seconds(), paper[i]);
      cells.push_back(SimTime::Seconds(paper[i]).ToString());
      cells.push_back(ours[i].ToString());
    }
    table.AddRow(cells);
  }
  table.Print();
  return Status::OK();
}

/// Ablation of the BRAM split between page buffers and compute data (paper
/// §6.1's allocation policy). More buffers means more Striders walking
/// pages in parallel and deeper access/execute interleaving; a single
/// buffer removes the pipeline entirely (access and execution serialize),
/// the paper's motivation for processing data "at a page granularity".
Status AblationBuffers(Harness& h, Scoreboard& s) {
  TablePrinter table(
      {"Workload", "Buffers", "Striders in parallel", "Epoch FPGA time",
       "vs best"});
  for (const char* id : {"rs_lr", "sn_logistic"}) {
    DANA_ASSIGN_OR_RETURN(const compiler::CompiledUdf* udf, h.Compiled(id));
    std::vector<std::pair<uint32_t, double>> results;
    for (uint32_t buffers : {1u, 2u, 4u, 8u, 16u, 32u}) {
      compiler::CompiledUdf variant = *udf;
      variant.design.num_page_buffers = buffers;
      DANA_ASSIGN_OR_RETURN(auto r, h.RunDanaCompiled(variant, id, kWarm));
      results.push_back({buffers, r.compute.seconds()});
    }
    double best = results[0].second;
    for (auto& [b, t] : results) best = std::min(best, t);
    for (auto& [b, t] : results) {
      s.Add(std::string(id) + ".buffers" + std::to_string(b) + "_s", t);
      table.AddRow({b == 1 ? ml::FindWorkload(id)->display_name : "",
                    std::to_string(b), std::to_string(b),
                    SimTime::Seconds(t).ToString(),
                    TablePrinter::Fmt(t / best, 2) + "x"});
    }
  }
  table.Print();
  std::printf(
      "\nOne buffer serializes access and execution (no interleaving); the "
      "curve flattens once the slowest pipeline stage stops being the "
      "Striders.\n");
  return Status::OK();
}

/// Ablation of selective SIMD against per-AU MIMD control (paper §5.2).
/// DAnA's analytic clusters share one controller across 8 AUs, one opcode
/// per issue, saving the per-AU decoder area. MIMD gives every AU its own
/// controller: schedules get marginally shorter, but the fatter AUs shrink
/// the fabric, which costs far more than the flexibility buys.
Status AblationSimd(Harness& h, Scoreboard& s) {
  TablePrinter table({"Workload", "SIMD AUs", "MIMD AUs", "SIMD makespan",
                      "MIMD makespan", "SIMD epoch", "MIMD epoch",
                      "SIMD advantage"});
  compiler::HardwareGenerator::Options mimd;
  mimd.mimd_only = true;
  for (const char* id : {"rs_lr", "wlan", "netflix", "sn_logistic"}) {
    const ml::Workload& w = *ml::FindWorkload(id);
    DANA_ASSIGN_OR_RETURN(const compiler::CompiledUdf* udf_s, h.Compiled(id));
    DANA_ASSIGN_OR_RETURN(auto udf_m, h.Compile(w, mimd));
    DANA_ASSIGN_OR_RETURN(auto r_s, h.RunDana(id, kWarm));
    DANA_ASSIGN_OR_RETURN(auto r_m, h.RunDanaCompiled(udf_m, id, kWarm));
    const auto record = [&](const std::string& mode,
                            const compiler::CompiledUdf& udf,
                            const runtime::SystemResult& r) {
      s.Add(w.id + "." + mode + ".aus", udf.design.total_aus);
      s.Add(w.id + "." + mode + ".makespan",
            udf.design.tuple_schedule.makespan);
      s.Add(w.id + "." + mode + ".epoch_s", r.compute.seconds());
    };
    record("simd", *udf_s, r_s);
    record("mimd", udf_m, r_m);
    table.AddRow({w.display_name, std::to_string(udf_s->design.total_aus),
                  std::to_string(udf_m.design.total_aus),
                  std::to_string(udf_s->design.tuple_schedule.makespan),
                  std::to_string(udf_m.design.tuple_schedule.makespan),
                  r_s.compute.ToString(), r_m.compute.ToString(),
                  TablePrinter::Speedup(r_m.compute / r_s.compute, 2)});
  }
  table.Print();
  std::printf(
      "\nSelective SIMD keeps the full 1024-AU fabric; per-AU controllers "
      "cost LUTs and halve the practical fabric, so MIMD never wins "
      "end-to-end even where its schedules are shorter.\n");
  return Status::OK();
}

/// The §7 page-size study: end-to-end runtimes at 8, 16 and 32 KB pages,
/// as speedup of 32 KB over each. The paper reports "no significant
/// impact" for PostgreSQL and Greenplum, and uses 32 KB for DAnA so that
/// every dataset fits at least one tuple per page; the Strider ISA walks
/// all three layouts with the same program.
Status PageSize(Harness& h, Scoreboard& s) {
  TablePrinter table({"Workload", "System", "8 KB", "16 KB", "32 KB"});
  for (const auto& w : ml::PublicWorkloads()) {
    // A tuple that does not fit the smallest page: the paper picked
    // 32 KB for exactly this reason.
    if (w.TuplePayloadBytes() + 28 > 8 * 1024 - 24) continue;
    std::map<uint32_t, double> pg_s, dana_s;
    for (uint32_t page_kb : {8u, 16u, 32u}) {
      DANA_ASSIGN_OR_RETURN(auto pg, h.RunPg(w.id, kWarm, page_kb * 1024));
      DANA_ASSIGN_OR_RETURN(auto dana, h.RunDana(w.id, kWarm, page_kb * 1024));
      pg_s[page_kb] = pg.total.seconds();
      dana_s[page_kb] = dana.total.seconds();
    }
    for (uint32_t page_kb : {8u, 16u}) {
      const std::string kb = "." + std::to_string(page_kb) + "kb";
      s.Add(w.id + ".pg" + kb, pg_s[32] / pg_s[page_kb]);
      s.Add(w.id + ".dana" + kb, dana_s[32] / dana_s[page_kb]);
    }
    table.AddRow({w.display_name, "MADlib+PostgreSQL",
                  TablePrinter::Fmt(pg_s[32] / pg_s[8], 2) + "x",
                  TablePrinter::Fmt(pg_s[32] / pg_s[16], 2) + "x", "1.00x"});
    table.AddRow({"", "DAnA+PostgreSQL",
                  TablePrinter::Fmt(dana_s[32] / dana_s[8], 2) + "x",
                  TablePrinter::Fmt(dana_s[32] / dana_s[16], 2) + "x",
                  "1.00x"});
  }
  table.Print();
  std::printf(
      "\nShape check: values near 1.00x across page sizes (paper: 'page "
      "size had no significant impact on the runtimes').\n");
  return Status::OK();
}

/// A reproduced figure: `--figure <name>` selects it, and its header and
/// tables print as run(...) computes them, recording into its scoreboard.
struct Figure {
  const char* name;
  const char* title;
  const char* paper_ref;
  Status (*run)(Harness&, Scoreboard&);
};

const Figure kFigures[] = {
    {"fig8", "Figure 8: end-to-end speedup, publicly available datasets",
     "Mahajan et al., PVLDB 11(11), Figure 8a/8b", Fig8},
    {"fig9", "Figure 9: end-to-end speedup, synthetic nominal datasets",
     "Mahajan et al., PVLDB 11(11), Figure 9a/9b", Fig9},
    {"fig10", "Figure 10: end-to-end speedup, synthetic extensive datasets",
     "Mahajan et al., PVLDB 11(11), Figure 10a/10b", Fig10},
    {"fig11", "Figure 11: benefit of Striders",
     "Mahajan et al., PVLDB 11(11), Figure 11", Fig11},
    {"fig12", "Figure 12: runtime vs merge coefficient (threads)",
     "Mahajan et al., PVLDB 11(11), Figure 12", Fig12},
    {"fig13", "Figure 13: Greenplum performance with varying segments",
     "Mahajan et al., PVLDB 11(11), Figure 13", Fig13},
    {"fig14", "Figure 14: FPGA time vs host-link bandwidth",
     "Mahajan et al., PVLDB 11(11), Figure 14", Fig14},
    {"fig15", "Figure 15: comparison with external software libraries",
     "Mahajan et al., PVLDB 11(11), Figure 15a/15b/15c", Fig15},
    {"fig16", "Figure 16: DAnA vs TABLA (compute time)",
     "Mahajan et al., PVLDB 11(11), Figure 16", Fig16},
    {"table3", "Table 3: datasets and machine learning models",
     "Mahajan et al., PVLDB 11(11), Table 3", Table3},
    {"table5", "Table 5: absolute runtimes across systems",
     "Mahajan et al., PVLDB 11(11), Table 5", Table5},
    {"ablation_buffers", "Ablation: page buffers / BRAM split",
     "paper §5.1 (page-granularity processing) and §6.1 (BRAM allocation)",
     AblationBuffers},
    {"ablation_simd", "Ablation: selective SIMD vs per-AU MIMD control",
     "design rationale of paper §5.2 (AC collective-instruction scheme)",
     AblationSimd},
    {"pagesize", "Page-size sensitivity (8/16/32 KB)",
     "Mahajan et al., PVLDB 11(11), §7 'Default setup' discussion", PageSize},
};

}  // namespace

int main(int argc, char** argv) {
  std::string only;
  if (argc == 3 && std::string(argv[1]) == "--figure") {
    only = argv[2];
  } else if (argc != 1) {
    std::fprintf(stderr, "usage: %s [--figure <name>]\n", argv[0]);
    return 2;
  }
  const bool known = std::any_of(
      std::begin(kFigures), std::end(kFigures),
      [&](const Figure& f) { return only == f.name; });
  if (!only.empty() && !known) {
    std::fprintf(stderr, "unknown figure '%s'; one of:", only.c_str());
    for (const Figure& f : kFigures) std::fprintf(stderr, " %s", f.name);
    std::fprintf(stderr, "\n");
    return 2;
  }

  Harness harness;
  TablePrinter summary({"Figure", "Series", "Cells", "paper_err"});
  for (const Figure& f : kFigures) {
    if (!only.empty() && only != f.name) continue;
    Harness::PrintHeader(f.title, f.paper_ref);
    Scoreboard board(f.name);
    Status st = f.run(harness, board);
    if (st.ok()) st = board.Write(&summary);
    if (!st.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", f.name, st.ToString().c_str());
      return 1;
    }
  }
  if (only.empty()) {
    std::printf(
        "\n=== Paper scoreboard: paper_err, the geomean of "
        "max(ours/paper, paper/ours) ===\n");
    summary.Print();
  }
  return 0;
}
