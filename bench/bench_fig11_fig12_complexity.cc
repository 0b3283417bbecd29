// Reproduces Figures 11 and 12 (query specification complexity): for each
// TPC-W catalog query and each strategy, the number of path expressions
// (Figure 11) and the number of variable bindings (Figure 12), computed by
// static analysis of the parsed ASTs — the two proxies for query
// simplicity the paper proposes in Section 7.3.
//
// Expected shape (paper): MCT and deep are comparable; shallow is markedly
// more complex because every value join adds a variable binding and a
// where-clause predicate. Rows identical across the three strategies are
// skipped, as in the paper's figures.

#include <cstdio>

#include "bench_util.h"
#include "mcx/evaluator.h"
#include "mcx/parser.h"
#include "workload/catalog.h"

namespace {

using namespace mct::workload;

mct::mcx::QueryComplexity Analyze(const std::string& text) {
  auto parsed = mct::mcx::Parse(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse failed: %s\n  %s\n",
                 parsed.status().ToString().c_str(), text.c_str());
    std::exit(1);
  }
  return mct::mcx::AnalyzeComplexity(*parsed);
}

}  // namespace

int main(int argc, char** argv) {
  mct::bench::CheckArgs(argc, argv, {});
  TpcwData data = GenerateTpcw(TpcwScale::Tiny());
  auto catalog = TpcwCatalog(data);

  std::printf("=== Figure 11: Number of Path Expressions ===\n\n");
  std::printf("%-6s %6s %8s %6s\n", "Query", "MCT", "Shallow", "Deep");
  mct::bench::PrintRule(30);
  int shown = 0;
  for (const CatalogQuery& q : catalog) {
    auto m = Analyze(q.mct);
    auto s = Analyze(q.shallow);
    auto d = Analyze(q.deep);
    if (m.num_path_exprs == s.num_path_exprs &&
        s.num_path_exprs == d.num_path_exprs) {
      continue;  // the paper omits identical rows
    }
    std::printf("%-6s %6d %8d %6d\n", q.id.c_str(), m.num_path_exprs,
                s.num_path_exprs, d.num_path_exprs);
    ++shown;
  }
  if (shown == 0) std::printf("(all rows identical)\n");

  std::printf("\n=== Figure 12: Number of Variable Bindings ===\n\n");
  std::printf("%-6s %6s %8s %6s\n", "Query", "MCT", "Shallow", "Deep");
  mct::bench::PrintRule(30);
  shown = 0;
  for (const CatalogQuery& q : catalog) {
    auto m = Analyze(q.mct);
    auto s = Analyze(q.shallow);
    auto d = Analyze(q.deep);
    if (m.num_variable_bindings == s.num_variable_bindings &&
        s.num_variable_bindings == d.num_variable_bindings) {
      continue;
    }
    std::printf("%-6s %6d %8d %6d\n", q.id.c_str(), m.num_variable_bindings,
                s.num_variable_bindings, d.num_variable_bindings);
    ++shown;
  }
  if (shown == 0) std::printf("(all rows identical)\n");

  // Aggregate check: the paper's conclusion is that MCT ~= deep << shallow.
  int mp = 0, sp = 0, dp = 0, mb = 0, sb = 0, dbv = 0;
  for (const CatalogQuery& q : catalog) {
    auto m = Analyze(q.mct);
    auto s = Analyze(q.shallow);
    auto d = Analyze(q.deep);
    mp += m.num_path_exprs;
    sp += s.num_path_exprs;
    dp += d.num_path_exprs;
    mb += m.num_variable_bindings;
    sb += s.num_variable_bindings;
    dbv += d.num_variable_bindings;
  }
  std::printf("\nTotals over the catalog:\n");
  std::printf("  path expressions:  MCT %d, Shallow %d, Deep %d\n", mp, sp, dp);
  std::printf("  variable bindings: MCT %d, Shallow %d, Deep %d\n", mb, sb,
              dbv);
  std::printf(
      "\nExpected shape (paper Section 7.3): MCT and deep comparable; the\n"
      "equivalent shallow query is quite a bit more complex.\n");
  return 0;
}
