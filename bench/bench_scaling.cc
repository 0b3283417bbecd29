// E7 — Section 7.2's scaling claim: "most of the times scaled linearly
// with data set size. The only exceptions were the two queries involving an
// inequality value join, which is implemented as nested loops, and hence
// has a quadratic dependence on data set size."
//
// This harness runs a linear-shaped query (TQ13, order->orderline
// navigation / value join) and the inequality-join query (TQ15) on the
// shallow database at a geometric ladder of scales and reports the growth
// exponent between successive sizes (log t ratio / log n ratio): ~1 means
// linear, ~2 quadratic.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "query/trace.h"
#include "workload/catalog.h"
#include "workload/runner.h"
#include "workload/tpcw_db.h"

namespace {

using namespace mct::workload;

const CatalogQuery* FindQuery(const std::vector<CatalogQuery>& catalog,
                              const std::string& id) {
  for (const CatalogQuery& q : catalog) {
    if (q.id == id) return &q;
  }
  return nullptr;
}

double MeasureQuery(TpcwDb* db, const std::string& text, int num_threads = 1) {
  return mct::bench::Repeated(
      [&]() {
        auto run = RunQuery(db->db.get(), db->default_color(), text, false,
                            num_threads);
        if (!run.ok()) {
          std::fprintf(stderr, "query failed: %s\n",
                       run.status().ToString().c_str());
          std::exit(1);
        }
        return run->seconds;
      },
      3);
}

}  // namespace

int main(int argc, char** argv) {
  mct::bench::CheckArgs(argc, argv, {"--scale=", "--trace"});
  double base = mct::bench::ScaleFromArgs(argc, argv, 0.1);
  if (mct::bench::HasFlag(argc, argv, "--trace")) {
    // EXPLAIN ANALYZE mode: trace the thread-sweep queries serially and at
    // 8 threads (to exercise the morsel counters), print the text trees,
    // and mirror the data as JSON.
    TpcwData data = GenerateTpcw(TpcwScale::Default().ScaledBy(base * 10));
    auto mct_db = BuildTpcw(data, SchemaKind::kMct);
    auto shallow_db = BuildTpcw(data, SchemaKind::kShallow);
    if (!mct_db.ok() || !shallow_db.ok()) {
      std::fprintf(stderr, "trace-mode build failed\n");
      return 1;
    }
    auto catalog = TpcwCatalog(data);
    struct Traced {
      const char* id;
      const char* schema;
      std::string text;
      TpcwDb* db;
    };
    std::vector<Traced> queries = {
        {"TQ2", "mct", FindQuery(catalog, "TQ2")->mct, &*mct_db},
        {"TQ6", "mct", FindQuery(catalog, "TQ6")->mct, &*mct_db},
        {"TQ6", "shallow", FindQuery(catalog, "TQ6")->shallow, &*shallow_db},
        {"TQ15", "shallow", FindQuery(catalog, "TQ15")->shallow,
         &*shallow_db},
    };
    std::FILE* out = std::fopen("BENCH_trace_scaling.json", "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot create BENCH_trace_scaling.json\n");
      return 1;
    }
    std::fprintf(out, "[");
    bool first = true;
    for (const Traced& q : queries) {
      for (int threads : {1, 8}) {
        mct::query::QueryTrace trace;
        auto run = RunQuery(q.db->db.get(), q.db->default_color(), q.text,
                            false, threads, 1024, &trace);
        if (!run.ok()) {
          std::fprintf(stderr, "query %s failed: %s\n", q.id,
                       run.status().ToString().c_str());
          return 1;
        }
        std::printf("EXPLAIN ANALYZE %s (%s, %d threads)  (%llu results)\n%s\n",
                    q.id, q.schema, threads,
                    static_cast<unsigned long long>(run->result_count),
                    trace.ToText().c_str());
        if (!first) std::fprintf(out, ",\n");
        first = false;
        std::fprintf(out,
                     "{\"query\": \"%s\", \"schema\": \"%s\", "
                     "\"threads\": %d, \"trace\": %s}",
                     q.id, q.schema, threads, trace.ToJson().c_str());
      }
    }
    std::fprintf(out, "]\n");
    std::fclose(out);
    std::printf("per-operator JSON written to BENCH_trace_scaling.json\n");
    return 0;
  }
  std::printf("=== Scaling (Section 7.2): linear vs quadratic queries ===\n\n");
  std::vector<double> scales{base, base * 2, base * 4};
  struct Point {
    double n;
    double linear_t;
    double quad_t;
  };
  std::vector<Point> points;
  for (double s : scales) {
    TpcwData data = GenerateTpcw(TpcwScale::Default().ScaledBy(s));
    auto shallow = BuildTpcw(data, SchemaKind::kShallow);
    if (!shallow.ok()) {
      std::fprintf(stderr, "build failed\n");
      return 1;
    }
    shallow->db->tree(shallow->doc)->EnsureLabels();
    auto catalog = TpcwCatalog(data);
    const CatalogQuery* linear = FindQuery(catalog, "TQ13");
    const CatalogQuery* quad = FindQuery(catalog, "TQ15");
    Point p;
    p.n = static_cast<double>(data.orders.size());
    p.linear_t = MeasureQuery(&*shallow, linear->shallow);
    p.quad_t = MeasureQuery(&*shallow, quad->shallow);
    points.push_back(p);
    std::printf("orders=%8.0f   TQ13(shallow, equality join)=%8.4fs   "
                "TQ15(shallow, inequality nested loop)=%8.4fs\n",
                p.n, p.linear_t, p.quad_t);
  }
  // Exponent over the widest span (robust against millisecond-scale noise
  // at the small end) plus the final step, where the asymptotic term
  // dominates.
  const Point& lo = points.front();
  const Point& hi = points.back();
  const Point& mid = points[points.size() - 2];
  double span = std::log(hi.n / lo.n);
  double lin_overall = std::log(hi.linear_t / lo.linear_t) / span;
  double quad_overall = std::log(hi.quad_t / lo.quad_t) / span;
  double last = std::log(hi.n / mid.n);
  double lin_last = std::log(hi.linear_t / mid.linear_t) / last;
  double quad_last = std::log(hi.quad_t / mid.quad_t) / last;
  std::printf("\nGrowth exponents (1 = linear, 2 = quadratic):\n");
  std::printf("  TQ13 (equality join):          overall %.2f, last step %.2f\n",
              lin_overall, lin_last);
  std::printf("  TQ15 (inequality nested loop): overall %.2f, last step %.2f\n",
              quad_overall, quad_last);
  std::printf(
      "\nExpected shape (paper Section 7.2): TQ13 stays near 1 (its small\n"
      "absolute times make the small-scale steps noisy); TQ15 approaches 2\n"
      "as the quadratic nested loop dominates.\n");

  // --- Morsel-driven parallel thread sweep (not in the paper; measures the
  // worker-pool execution path). Serial remains the default everywhere; this
  // section opts in per query and reports speedup over num_threads = 1.
  // Results also land in BENCH_parallel.json for machine consumption.
  std::printf("\n=== Morsel-driven parallel execution: thread sweep ===\n\n");
  double par_scale = base * 10;  // scale 1.0 at the default --scale=0.1
  TpcwData pdata = GenerateTpcw(TpcwScale::Default().ScaledBy(par_scale));
  auto pmct = BuildTpcw(pdata, SchemaKind::kMct);
  auto pshallow = BuildTpcw(pdata, SchemaKind::kShallow);
  if (!pmct.ok() || !pshallow.ok()) {
    std::fprintf(stderr, "parallel-sweep build failed\n");
    return 1;
  }
  auto pcatalog = TpcwCatalog(pdata);
  struct Sweep {
    const char* id;
    const char* schema;
    std::string text;
    TpcwDb* db;
  };
  std::vector<Sweep> sweeps = {
      {"TQ2", "mct", FindQuery(pcatalog, "TQ2")->mct, &*pmct},
      {"TQ6", "mct", FindQuery(pcatalog, "TQ6")->mct, &*pmct},
      {"TQ6", "shallow", FindQuery(pcatalog, "TQ6")->shallow, &*pshallow},
      {"TQ15", "shallow", FindQuery(pcatalog, "TQ15")->shallow, &*pshallow},
  };
  const std::vector<int> thread_counts{1, 2, 4, 8};
  std::FILE* json = std::fopen("BENCH_parallel.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"scale\": %g,\n  \"orders\": %zu,\n"
                 "  \"queries\": [\n", par_scale, pdata.orders.size());
  }
  bool first = true;
  for (const Sweep& s : sweeps) {
    std::printf("%-5s (%s):", s.id, s.schema);
    std::vector<double> times;
    for (int t : thread_counts) {
      times.push_back(MeasureQuery(s.db, s.text, t));
      std::printf("  %dt=%7.4fs", t, times.back());
    }
    double speedup4 = times[0] / times[2];
    std::printf("  | 4-thread speedup %.2fx\n", speedup4);
    if (json != nullptr) {
      std::fprintf(json, "%s    {\"id\": \"%s\", \"schema\": \"%s\"",
                   first ? "" : ",\n", s.id, s.schema);
      for (size_t i = 0; i < thread_counts.size(); ++i) {
        std::fprintf(json, ", \"t%d\": %.6f", thread_counts[i], times[i]);
      }
      std::fprintf(json, ", \"speedup_4t\": %.3f}", speedup4);
      first = false;
    }
  }
  if (json != nullptr) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
    std::printf("\nWrote BENCH_parallel.json\n");
  }
  return 0;
}
