// Workload `comply_delete`: one client sends forget-user requests in a
// closed loop against a uid-sorted sharded dataset written at
// compliance level 2 (uid, device, ts and clk_seq list<int64>
// deletable, score float64 not; 2-6 rows per user). Each request
// opens the owning shard (TableReader::Open for the footer), runs
// DeleteExecutor::DeleteRows (level 2: in-place erasure + Merkle
// update) on the user's rows, and when that pushes the shard's
// deleted fraction past the compaction threshold, also runs
// DatasetCompactor::Compact inline and publishes the new manifest
// before the request completes.
//
// Why: section 2.1's in-place erasure, the Merkle update and the
// compaction rewrite run on no other workload. Its writes are small
// in-place rewrites plus a periodic re-encode, the opposite of
// ingest's bulk appends. Shards are sized so a few percent of
// requests compact: compaction spikes land at p99, not p50.
//
// Layer -> end-to-end map on this workload:
//   format.delete_us_p50 / delete_pages_rewritten    -> p50_ms
//   format.delete_bytes_written                      -> bytes_ratio
//   format.open_footer_us                            -> p50_ms
//   dataset.compact_ms / compact_bytes_written       -> tail_ms, bytes_ratio
//
// The request path is already a sequence of layer calls made from this
// file, so the traced run times the same requests with a span around
// each call (format.open_footer, format.delete, dataset.compact with
// dataset.manifest inside it).
#include <algorithm>

#include "common/random.h"
#include "dataset/evolution.h"
#include "format/deletion.h"
#include "format/reader.h"
#include "workloads.h"

namespace perfbench {

using bullion::ShardManifest;

namespace {

// Sizing: ~98k users (~390k rows) in 2048-row shards, so a 15 s run
// forgets about a third of the users; at a 5% threshold one request in
// ~25 compacts its shard.
struct DeleteConfig {
  size_t users = 98304;
  uint32_t rows_per_group = 1024;
  uint64_t rows_per_shard = 2048;
  uint32_t rows_per_page = 256;
  double compact_threshold = 0.05;
};

DeleteConfig ConfigFor(const Args& args) {
  DeleteConfig c;
  if (args.tiny) {
    c.users = 256;
    c.rows_per_group = 64;
    c.rows_per_shard = 128;
    c.rows_per_page = 32;
  }
  return c;
}

/// What the client knows about one shard: its live physical rows (uid
/// per row, in file order, tombstoned rows included until compaction).
struct ShardState {
  std::vector<int64_t> uids;
  std::vector<uint8_t> deleted;
  uint64_t deleted_rows = 0;
};

struct DeleteCorpus {
  FileDir* dir = nullptr;
  bullion::Schema schema;
  ShardManifest manifest;
  std::vector<ShardState> shards;
  std::vector<uint32_t> shard_of_user;
  std::vector<uint64_t> user_bytes;  // logical bytes of each user's rows
  std::vector<uint8_t> forgotten;    // users erased while ageing
  uint64_t live_rows = 0;
};

bullion::Schema DeleteSchema() {
  using bullion::DataType;
  using bullion::Field;
  using bullion::LogicalType;
  using bullion::PhysicalType;
  return bullion::Schema({
      Field{"uid", DataType::Primitive(PhysicalType::kInt64),
            LogicalType::kPlain, true},
      Field{"device", DataType::Primitive(PhysicalType::kInt64),
            LogicalType::kPlain, true},
      Field{"ts", DataType::Primitive(PhysicalType::kInt64),
            LogicalType::kPlain, true},
      // Not deletable: level-2 masking covers int-domain leaves only.
      // The writer restricts a deletable float leaf to nothing, the
      // cascade may pick ALP, and DeleteRows then fails with "page
      // encoding is not in-place maskable". Its rows are still
      // tombstoned and dropped by compaction.
      Field{"score", DataType::Primitive(PhysicalType::kFloat64),
            LogicalType::kPlain, false},
      Field{"clk_seq",
            DataType::List(DataType::Primitive(PhysicalType::kInt64)),
            LogicalType::kIdSequence, true},
  });
}

Status BuildCorpus(const Args& args, const DeleteConfig& cfg, size_t threads,
                   DeleteCorpus* c) {
  c->schema = DeleteSchema();
  bullion::Random rng(args.seed * 0x9E3779B97F4A7C15ull + 3);
  std::vector<ColumnVector> cols;
  for (const auto& leaf : c->schema.leaves()) {
    cols.push_back(ColumnVector::ForLeaf(leaf));
  }
  c->user_bytes.assign(cfg.users, 0);
  std::vector<int64_t> row_uid;
  int64_t ts = 1700000000;
  for (size_t u = 0; u < cfg.users; ++u) {
    size_t n = 2 + rng.Uniform(5);
    for (size_t i = 0; i < n; ++i) {
      std::vector<int64_t> seq(1 + rng.Uniform(8));
      for (int64_t& v : seq) v = static_cast<int64_t>(rng.Uniform(1u << 16));
      ts += static_cast<int64_t>(rng.Uniform(60));
      cols[0].AppendInt(static_cast<int64_t>(u));
      cols[1].AppendInt(static_cast<int64_t>(rng.Uniform(5000)));
      cols[2].AppendInt(ts);
      cols[3].AppendReal(static_cast<double>(rng.Uniform(1000)) / 1000.0);
      cols[4].AppendIntList(seq);
      // int64 values are 8 bytes; a list row adds one offset.
      c->user_bytes[u] += 4 * 8 + 8 + 8 * seq.size();
      row_uid.push_back(static_cast<int64_t>(u));
    }
  }
  bullion::WriterOptions wopts;
  wopts.rows_per_page = cfg.rows_per_page;
  wopts.compliance = bullion::ComplianceLevel::kLevel2;
  BULLION_ASSIGN_OR_RETURN(
      c->manifest, WriteDataset(c->dir, c->schema, {cols}, "forget",
                                cfg.rows_per_shard, cfg.rows_per_group, wopts,
                                threads));
  c->shards.clear();
  c->shard_of_user.assign(cfg.users, 0);
  size_t row = 0;
  for (size_t s = 0; s < c->manifest.num_shards(); ++s) {
    ShardState st;
    for (uint64_t i = 0; i < c->manifest.shard(s).num_rows; ++i, ++row) {
      st.uids.push_back(row_uid[row]);
      c->shard_of_user[row_uid[row]] = static_cast<uint32_t>(s);
    }
    st.deleted.assign(st.uids.size(), 0);
    c->shards.push_back(std::move(st));
  }
  c->live_rows = row_uid.size();
  return Status::OK();
}

/// Ages the dataset the way a live one looks: every shard starts with a
/// seeded deleted fraction in [0, threshold), so compactions spread
/// evenly over the run instead of arriving in one wave once every
/// shard has taken its first few percent of deletes. Opens, and so
/// warms, every shard.
Status AgeCorpus(const DeleteConfig& cfg, uint64_t seed, DeleteCorpus* c) {
  bullion::Random rng(seed);
  c->forgotten.assign(c->shard_of_user.size(), 0);
  for (size_t s = 0; s < c->shards.size(); ++s) {
    ShardState& st = c->shards[s];
    // The shard's users with their row ranges, in a seeded order.
    std::vector<std::pair<size_t, size_t>> users;
    for (size_t i = 0, j = 0; i < st.uids.size(); i = j) {
      while (j < st.uids.size() && st.uids[j] == st.uids[i]) ++j;
      users.push_back({i, j});
    }
    for (size_t i = users.size(); i > 1; --i) {
      std::swap(users[i - 1], users[rng.Uniform(i)]);
    }
    const double target =
        rng.NextDouble() * cfg.compact_threshold * st.uids.size();
    std::vector<uint64_t> rows;
    for (const auto& [begin, end] : users) {
      if (static_cast<double>(rows.size() + end - begin) >= target) break;
      for (size_t r = begin; r < end; ++r) rows.push_back(r);
      c->forgotten[st.uids[begin]] = 1;
    }
    std::sort(rows.begin(), rows.end());
    const std::string& name = c->manifest.shard(s).name;
    BULLION_ASSIGN_OR_RETURN(auto file, c->dir->OpenRead(name));
    BULLION_ASSIGN_OR_RETURN(auto reader,
                             bullion::TableReader::Open(std::move(file)));
    if (rows.empty()) continue;
    BULLION_ASSIGN_OR_RETURN(auto rf, c->dir->OpenRead(name));
    BULLION_ASSIGN_OR_RETURN(auto uf, c->dir->OpenForUpdate(name));
    bullion::DeleteExecutor exec(rf.get(), uf.get(), reader->footer());
    BULLION_RETURN_NOT_OK(
        exec.DeleteRows(rows, bullion::ComplianceLevel::kLevel2).status());
    for (uint64_t r : rows) st.deleted[r] = 1;
    st.deleted_rows += rows.size();
    c->live_rows -= rows.size();
  }
  return Status::OK();
}

struct RequestResult {
  Status status;
  uint64_t ns = 0;
  bool compacted = false;
  uint64_t compact_ns = 0;
  uint64_t rows = 0;
  bullion::DeleteReport del;
};

/// One forget-user request, timed end to end.
RequestResult Forget(DeleteCorpus* c, const DeleteConfig& cfg, size_t threads,
                     int64_t user, uint64_t id, Tracer* tracer) {
  RequestResult r;
  const uint32_t s = c->shard_of_user[user];
  ShardState& st = c->shards[s];
  // The user's rows: contiguous, since the table is uid-sorted.
  auto lo = std::lower_bound(st.uids.begin(), st.uids.end(), user);
  auto hi = std::upper_bound(st.uids.begin(), st.uids.end(), user);
  std::vector<uint64_t> rows;
  for (auto it = lo; it != hi; ++it) {
    size_t i = static_cast<size_t>(it - st.uids.begin());
    if (!st.deleted[i]) rows.push_back(i);
  }
  r.rows = rows.size();
  const std::string name = c->manifest.shard(s).name;
  Span root(tracer, "bench.request", id);
  const uint64_t t0 = NowNs();
  auto run = [&]() -> Status {
    std::unique_ptr<bullion::TableReader> reader;
    {
      Span span(tracer, "format.open_footer", id, root.index());
      BULLION_ASSIGN_OR_RETURN(auto file, c->dir->OpenRead(name));
      BULLION_ASSIGN_OR_RETURN(reader,
                               bullion::TableReader::Open(std::move(file)));
    }
    BULLION_ASSIGN_OR_RETURN(auto rf, c->dir->OpenRead(name));
    BULLION_ASSIGN_OR_RETURN(auto uf, c->dir->OpenForUpdate(name));
    {
      Span span(tracer, "format.delete", id, root.index());
      bullion::DeleteExecutor exec(rf.get(), uf.get(), reader->footer());
      BULLION_ASSIGN_OR_RETURN(
          r.del, exec.DeleteRows(rows, bullion::ComplianceLevel::kLevel2));
    }
    for (uint64_t i : rows) st.deleted[i] = 1;
    st.deleted_rows += rows.size();
    if (static_cast<double>(st.deleted_rows) <
        cfg.compact_threshold * static_cast<double>(st.uids.size())) {
      return Status::OK();
    }
    // Over the threshold: compact inline and publish the new manifest.
    r.compacted = true;
    const uint64_t c0 = NowNs();
    Span span(tracer, "dataset.compact", id, root.index());
    const size_t compact_span = span.index();
    bullion::DatasetCompactor compactor(
        [c](const std::string& n) { return c->dir->OpenRead(n); },
        [c](const std::string& n) { return c->dir->Create(n); },
        [c](const std::string& n) { return c->dir->Remove(n); });
    bullion::DatasetCompactionOptions opts;
    opts.min_deleted_fraction = cfg.compact_threshold;
    opts.threads = threads;
    opts.publish = [&](const ShardManifest& m) {
      Span publish(tracer, "dataset.manifest", id, compact_span);
      return PublishManifest(c->dir, m, "forget");
    };
    BULLION_ASSIGN_OR_RETURN(bullion::DatasetCompactionReport rep,
                             compactor.Compact(c->manifest, opts));
    r.compact_ns = NowNs() - c0;
    c->manifest = rep.manifest;
    // Compaction keeps the surviving rows in order.
    ShardState kept;
    for (size_t i = 0; i < st.uids.size(); ++i) {
      if (!st.deleted[i]) kept.uids.push_back(st.uids[i]);
    }
    kept.deleted.assign(kept.uids.size(), 0);
    st = std::move(kept);
    return Status::OK();
  };
  r.status = run();
  r.ns = NowNs() - t0;
  return r;
}

/// After a request: the user is gone from its shard, and the shard
/// holds exactly the rows the client expects.
bool VerifyShard(DeleteCorpus* c, uint32_t s, int64_t user) {
  const bullion::ShardInfo& info = c->manifest.shard(s);
  auto file = c->dir->OpenRead(info.name);
  if (!file.ok()) return false;
  auto reader = bullion::TableReader::Open(std::move(*file));
  if (!reader.ok()) return false;
  const ShardState& st = c->shards[s];
  uint64_t live = 0;
  for (uint32_t g = 0; g < (*reader)->num_row_groups(); ++g) {
    ColumnVector uid;
    if (!(*reader)->ReadColumnChunk(g, 0, bullion::ReadOptions{}, &uid).ok()) {
      return false;
    }
    for (int64_t v : uid.int_values()) {
      if (v == user) return false;
    }
    live += uid.num_rows();
  }
  return live == st.uids.size() - st.deleted_rows;
}

}  // namespace

Status RunComplyDelete(const Args& args, Report* report, Tracer* tracer) {
  const DeleteConfig cfg = ConfigFor(args);
  const size_t threads = BenchThreads();
  FileDir dir(args.dir + "/forget");
  DeleteCorpus corpus;
  corpus.dir = &dir;

  // Set-up: write the dataset, then age it (which also warms every
  // shard's footer and the delete path).
  BULLION_ASSIGN_OR_RETURN(
      double setup_s,
      MedianSetupSeconds(SetupReps(args), [&](size_t) -> Status {
        BULLION_RETURN_NOT_OK(RemoveTree(dir.path()));
        BULLION_RETURN_NOT_OK(MakeDir(dir.path()));
        BULLION_RETURN_NOT_OK(BuildCorpus(args, cfg, threads, &corpus));
        return AgeCorpus(cfg, args.seed * 7 + 1, &corpus);
      }));
  report->Metric("setup_s", setup_s, "s");
  report->Note("shards", std::to_string(corpus.manifest.num_shards()));
  report->Note("compact_threshold", std::to_string(cfg.compact_threshold));

  // Forget requests visit the remaining users in a seeded order, each
  // user once.
  std::vector<int64_t> order;
  for (size_t u = 0; u < cfg.users; ++u) {
    if (!corpus.forgotten[u]) order.push_back(static_cast<int64_t>(u));
  }
  bullion::Random rng(args.seed * 131 + 9);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }

  // The traced run alternates untraced and traced requests, so both
  // halves see the same dataset state and machine.
  // Request latencies stamped with their start, for per-second
  // quantiles.
  TimedSamples latency_ms;
  Samples untraced_ms, traced_ms, compact_ms;
  uint64_t erased_bytes = 0;
  uint64_t pages_rewritten = 0;
  uint64_t delete_bytes = 0;
  uint64_t compact_bytes = 0;
  uint64_t compactions = 0;
  uint64_t requests = 0;
  double busy_s = 0;
  const bullion::IoStatsSnapshot before = dir.stats().Snapshot();
  const uint64_t t_start = NowNs();
  const uint64_t deadline =
      t_start + static_cast<uint64_t>(args.seconds * 1e9);
  if (args.trace) tracer->Clear();
  for (size_t i = 0; i < order.size() && NowNs() < deadline; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    tracer->Enable(traced);
    const int64_t user = order[i];
    const uint32_t shard = corpus.shard_of_user[user];
    const uint64_t w0 = dir.stats().Snapshot().bytes_written;
    const uint64_t started = NowNs() - t_start;
    RequestResult r = Forget(&corpus, cfg, threads, user, i, tracer);
    const uint64_t written = dir.stats().Snapshot().bytes_written - w0;
    tracer->Enable(false);
    report->Attempt(r.status.ok(), "forget user " + std::to_string(user) +
                                       ": " + r.status.ToString());
    BULLION_RETURN_NOT_OK(r.status);
    ++requests;
    latency_ms.Add(started, NsToMs(r.ns));
    (traced ? traced_ms : untraced_ms).Add(NsToMs(r.ns));
    busy_s += static_cast<double>(r.ns) / 1e9;
    erased_bytes += corpus.user_bytes[user];
    corpus.live_rows -= r.rows;
    if (traced) {
      pages_rewritten += r.del.pages_rewritten;
      delete_bytes += r.del.total_bytes_written();
      if (r.compacted) {
        compact_ms.Add(NsToMs(r.compact_ns));
        compact_bytes += written - r.del.total_bytes_written();
      }
    }
    // Output checks, outside the timed window.
    report->Attempt(VerifyShard(&corpus, shard, user),
                    "user " + std::to_string(user) +
                        " still visible or shard " + std::to_string(shard) +
                        " row count wrong");
    if (r.compacted) {
      ++compactions;
      uint64_t survivors = 0;
      for (const bullion::ShardInfo& s : corpus.manifest.shards()) {
        survivors += s.num_rows - s.deleted_rows;
      }
      report->Attempt(survivors == corpus.live_rows,
                      "survivor count after compaction");
    }
  }
  const bullion::IoStatsSnapshot d =
      bullion::IoStatsDelta(before, dir.stats().Snapshot());
  if (requests == order.size()) {
    report->Note("warning", "every user was forgotten before the deadline");
  }

  if (!args.trace) {
    // Medians over 1 s windows (~2k requests each) of the per-window
    // p50 and p99: a stall of the shared host moves a few windows, not
    // the run's figure.
    const double p50 = latency_ms.WindowedQuantile(1000000000, 0.5);
    const double p99 = latency_ms.WindowedQuantile(1000000000, 0.99);
    report->Metric("p50_ms", p50, "ms");
    report->Metric("tail_ms", p99, "ms");
    report->Metric("tail_percentile", 99, "pct");
    report->Metric("delete_p50_ms", p50, "ms");
    report->Metric("delete_p99_ms", p99, "ms");
    report->Metric("delete_samples", static_cast<double>(requests), "count");
    report->Metric("compactions", static_cast<double>(compactions), "count");
    report->Metric("mb_s", static_cast<double>(erased_bytes) / 1e6 / busy_s,
                   "MB/s");
    const double amp = static_cast<double>(d.bytes_written) /
                       static_cast<double>(std::max<uint64_t>(1, erased_bytes));
    report->Metric("bytes_ratio", amp, "ratio");
    report->Metric("delete_write_amp", amp, "ratio");
    if (!latency_ms.All().Supports(0.99)) {
      report->Note("warning", "fewer than ten requests beyond p99");
    }
    ReportCommon(report);
    return Status::OK();
  }

  const double traced_n = static_cast<double>(traced_ms.size());
  report->Metric("bench.trace_overhead_frac",
                 (traced_ms.Median() - untraced_ms.Median()) /
                     untraced_ms.Median(),
                 "ratio");
  report->Metric("format.open_footer_us",
                 tracer->DurationsUs("format.open_footer").Median(), "us");
  report->Metric("format.delete_us_p50",
                 tracer->DurationsUs("format.delete").Median(), "us");
  report->Metric("format.delete_pages_rewritten", pages_rewritten / traced_n,
                 "count");
  report->Metric("format.delete_bytes_written", delete_bytes / traced_n, "B");
  report->Metric("dataset.compact_ms", compact_ms.Mean(), "ms");
  report->Metric("dataset.compact_bytes_written",
                 compact_ms.empty() ? 0 : compact_bytes / compact_ms.size(),
                 "B");
  const double n_requests = static_cast<double>(requests);
  report->Metric("io.write_calls", d.write_calls / n_requests, "count");
  report->Metric("io.write_bytes", d.bytes_written / n_requests, "B");
  ReportLayerSelfTimes(*tracer, traced_ms.size(), report);
  BULLION_RETURN_NOT_OK(tracer->WriteChromeTrace(args.trace_file));
  BULLION_RETURN_NOT_OK(ProfileCodecs(&dir, corpus.manifest, {}, report));
  FillIdleLayers(report);
  ReportCommon(report);
  return Status::OK();
}

}  // namespace perfbench
