// dana_lint — determinism lint for the dana tree.
//
// A lexer-lite static checker (no compiler dependency) that enforces the
// repo's determinism contracts:
//
//   unordered-snapshot  no iteration over std::unordered_{map,set} in
//                       snapshot/report/serialization functions
//   unseeded-random     no raw PRNG/entropy outside common/random.h
//   wall-clock          no wall/monotonic clock reads outside bench timers
//   float-metric        no float accumulation into counters outside obs/
//
// Usage:
//   dana_lint [--json[=PATH]] [--list-rules] PATH...
//
// PATH may be a file or a directory (scanned recursively for .h/.hpp/.cc/
// .cpp). Findings print as `file:line: [rule] message`, one per line, to
// stderr. `--json` emits the machine-readable summary (schema_version,
// per-rule counts, findings) to stdout or PATH.
//
// Suppress a finding in place with `// dana-lint: allow(<rule>)` on the
// offending line or the line directly above it.
//
// Exit codes: 0 clean, 1 findings, 2 usage/IO error.

#include <cstdio>
#include <string>
#include <vector>

#include "lint/lint.h"

namespace {

void PrintUsage() {
  std::fprintf(stderr,
               "usage: dana_lint [--json[=PATH]] [--list-rules] PATH...\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  bool emit_json = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    }
    if (arg == "--list-rules") {
      for (const dana::lint::RuleInfo& rule : dana::lint::Rules()) {
        std::printf("%-20s %s\n", rule.id, rule.summary);
      }
      return 0;
    }
    if (arg == "--json") {
      emit_json = true;
      continue;
    }
    if (arg.rfind("--json=", 0) == 0) {
      emit_json = true;
      json_path = arg.substr(7);
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "dana_lint: unknown flag '%s'\n", arg.c_str());
      PrintUsage();
      return 2;
    }
    roots.push_back(std::move(arg));
  }
  if (roots.empty()) {
    PrintUsage();
    return 2;
  }

  dana::lint::TreeReport report = dana::lint::LintTree(roots);
  if (report.files_scanned == 0) {
    std::fprintf(stderr, "dana_lint: no source files found under given paths\n");
    return 2;
  }

  for (const dana::lint::Finding& f : report.findings) {
    std::fprintf(stderr, "%s:%u: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }

  if (emit_json) {
    dana::obs::Json doc = dana::lint::ReportJson(report);
    if (json_path.empty()) {
      std::printf("%s\n", doc.Dump(2).c_str());
    } else {
      dana::Status st = doc.WriteFile(json_path, 2);
      if (!st.ok()) {
        std::fprintf(stderr, "dana_lint: cannot write %s: %s\n",
                     json_path.c_str(), st.ToString().c_str());
        return 2;
      }
    }
  }

  std::fprintf(stderr, "dana_lint: scanned %zu files, %zu finding(s)\n",
               report.files_scanned, report.findings.size());
  return report.findings.empty() ? 0 : 1;
}
