// Durability overhead: per-statement commit latency with fsync-per-update
// vs group commit, checkpoint cost, and recovery (WAL replay) speed, all on
// the real filesystem through DurableSession.

#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/timer.h"
#include "../tests/movie_fixture.h"
#include "mct/durability.h"

namespace {

using namespace mct;

std::string UpdateStatement(int i) {
  return StrFormat(
      "for $a in document(\"d\")/{blue}descendant::actor"
      "[{blue}child::name = \"Bette Davis\"] "
      "update $a { insert <note>entry %d</note> into {blue} }",
      i);
}

void MustRun(DurableSession* s, const std::string& text, bool sync_each) {
  auto r = s->Run(text, 0, sync_each);
  if (!r.ok() || r->updated_count == 0) {
    std::fprintf(stderr, "update failed: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  mct::bench::CheckArgs(argc, argv, {"--scale="});
  double scale = mct::bench::ScaleFromArgs(argc, argv, 0.1);
  int n = static_cast<int>(1000 * scale);
  if (n < 10) n = 10;
  std::string dir =
      (std::filesystem::temp_directory_path() / "mct_bench_durability")
          .string();
  std::filesystem::remove_all(dir);
  auto& metrics = MetricsRegistry::Global();

  std::printf("=== Durability (WAL + checkpoint + recovery) ===\n\n");

  auto session = DurableSession::Open(dir);
  if (!session.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  DurableSession* s = session->get();
  if (!s->Bootstrap(testfix::BuildMovieDb().db).ok()) return 1;

  // Per-statement durable commits: one WAL append + one fsync each.
  {
    Timer t;
    for (int i = 0; i < n; ++i) MustRun(s, UpdateStatement(i), true);
    double secs = t.ElapsedSeconds();
    std::printf(
        "fsync-per-update:  %6d updates in %7.3fs  (%8.0f/s, %7.1f us/commit)\n",
        n, secs, n / secs, 1e6 * secs / n);
  }

  // Group commit: batch appends, one fsync per 64 statements.
  {
    Timer t;
    for (int i = 0; i < n; ++i) {
      MustRun(s, UpdateStatement(n + i), false);
      if (i % 64 == 63 && !s->Sync().ok()) return 1;
    }
    if (!s->Sync().ok()) return 1;
    double secs = t.ElapsedSeconds();
    std::printf(
        "group commit (64): %6d updates in %7.3fs  (%8.0f/s, %7.1f us/commit)\n",
        n, secs, n / secs, 1e6 * secs / n);
  }

  // Checkpoint: full checksummed snapshot + WAL reset.
  {
    uint64_t bytes_before = metrics.counter("mct.checkpoint.bytes")->value();
    Timer t;
    if (!s->Checkpoint().ok()) return 1;
    double secs = t.ElapsedSeconds();
    uint64_t bytes = metrics.counter("mct.checkpoint.bytes")->value() -
                     bytes_before;
    std::printf("checkpoint:        %6.2f MiB in %7.3fs  (%.0f MiB/s)\n",
                bytes / (1024.0 * 1024.0), secs,
                bytes / (1024.0 * 1024.0) / secs);
  }

  // Recovery: replay a WAL tail of n statements over the checkpoint.
  {
    for (int i = 0; i < n; ++i) MustRun(s, UpdateStatement(2 * n + i), false);
    if (!s->Sync().ok()) return 1;
    session->reset();  // drop without checkpointing: the WAL is the state
    Timer t;
    auto rec = RecoverDatabase(dir);
    double secs = t.ElapsedSeconds();
    if (!rec.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   rec.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "recovery:          %6llu records replayed in %7.3fs  (%8.0f/s)\n",
        static_cast<unsigned long long>(rec->replayed_records), secs,
        rec->replayed_records / secs);
  }

  std::printf(
      "\nExpected shape: group commit amortizes the fsync and runs well\n"
      "above the fsync-per-update rate; recovery replays the whole tail.\n");
  std::filesystem::remove_all(dir);
  return 0;
}
