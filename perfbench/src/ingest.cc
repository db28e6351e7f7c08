// Workload `ingest`: a long-running ingest job appends the ads-shaped
// wide table (workload::BuildAdsSchema at scale 0.02, ~366 leaves,
// GenerateAdsData sliding-window sparse sequences) one row group per
// Append through ShardedWriteBuilder with Threads(min(nproc, 4)) and
// default WriterOptions (cascade selection, zone maps, Bloom filters at
// 10 bits/key, 1 MiB aggregated commit), rolling shards as it goes,
// until --seconds pass; then Finish() and the manifest is published.
//
// Why: the write path is the slowest path in the system. Encoding and
// the format's stage/encode/commit do the work; io reads, serve and the
// dataset cache are idle.
//
// Layer -> end-to-end map on this workload:
//   format.stage_ms / encode_page_us / encode_busy_s / commit_ms -> mb_s
//   exec.write_stall_ms / write_parallel_eff                    -> mb_s
//   io.write_calls / write_bytes / write_us_p99                 -> mb_s
//   encoding.pages_by_codec.*                                   -> bytes_ratio
//
// The traced run replays the same appends through the format layer's
// StageRowGroup / EncodeStagedPage / CommitEncodedGroup + Finish, with
// the encodes fanned over an exec ThreadPool and the same in-flight
// window (2 x threads) as the front door.
#include <deque>
#include <memory>

#include "core/scan.h"
#include "exec/thread_pool.h"
#include "format/writer.h"
#include "workload/ads_schema.h"
#include "workloads.h"

namespace perfbench {

using bullion::ShardManifest;

namespace {

struct IngestConfig {
  double scale = 0.02;
  uint32_t rows_per_group = 64;
  uint64_t rows_per_shard = 512;
  size_t distinct_batches = 16;
  size_t replay_groups = 48;
};

IngestConfig ConfigFor(const Args& args) {
  IngestConfig c;
  if (args.tiny) {
    c.rows_per_group = 16;
    c.rows_per_shard = 32;
    c.distinct_batches = 4;
    c.replay_groups = 6;
  }
  return c;
}

struct IngestInputs {
  bullion::Schema schema;
  std::vector<std::vector<ColumnVector>> batches;  // one row group each
};

Status GenerateInputs(const Args& args, const IngestConfig& cfg,
                      IngestInputs* in) {
  in->schema = bullion::workload::BuildAdsSchema(cfg.scale);
  bullion::workload::AdsDataOptions dopts;
  dopts.seq_length = 16;
  in->batches.clear();
  for (size_t i = 0; i < cfg.distinct_batches; ++i) {
    in->batches.push_back(bullion::workload::GenerateAdsData(
        in->schema, cfg.rows_per_group, args.seed * 1000003 + i, dopts));
  }
  return Status::OK();
}

/// The reopened dataset must scan back equal to the appended input:
/// global group g holds batch g % distinct_batches.
void CheckScanBack(FileDir* dir, const ShardManifest& manifest,
                   const IngestInputs& in, Report* report) {
  auto ds = OpenDataset(dir, manifest);
  if (!ds.ok()) {
    report->Attempt(false, "ingest reopen: " + ds.status().ToString());
    return;
  }
  bullion::IoStats stats;
  auto stream = bullion::Scan(ds->get())
                    .Threads(BenchThreads())
                    .Stats(&stats)
                    .Stream();
  if (!stream.ok()) {
    report->Attempt(false, "ingest scan-back: " + stream.status().ToString());
    return;
  }
  bullion::RowBatch batch;
  uint64_t groups = 0;
  for (;;) {
    auto more = (*stream)->Next(&batch);
    if (!more.ok()) {
      report->Attempt(false, "ingest scan-back: " + more.status().ToString());
      return;
    }
    if (!*more) break;
    const auto& want = in.batches[batch.group % in.batches.size()];
    report->Attempt(batch.columns == want,
                    "ingest group " + std::to_string(batch.group) +
                        " differs from its input");
    ++groups;
  }
  report->Attempt(groups == manifest.total_row_groups() &&
                      stats.batches_emitted == groups,
                  "ingest scan-back group count");
}

/// The traced replay: the front door's stage -> encode -> commit
/// pipeline driven from here, with a span around every layer call.
struct ReplayResult {
  double wall_s = 0;
  Status status;
  ShardManifest manifest;
};

ReplayResult ReplayIngest(FileDir* dir, const IngestConfig& cfg,
                          const IngestInputs& in, size_t threads,
                          Tracer* tracer) {
  ReplayResult res;
  bullion::WriterOptions wopts;
  bullion::ThreadPool pool(threads);
  const size_t window = 2 * threads;
  struct Pending {
    uint64_t group = 0;
    size_t span = 0;
    std::shared_ptr<const bullion::StagedRowGroup> staged;
    std::vector<bullion::EncodedPage> pages;
    std::unique_ptr<bullion::TaskGroup> tasks;
  };
  std::deque<std::unique_ptr<Pending>> pending;
  std::unique_ptr<bullion::WritableFile> file;
  std::unique_ptr<bullion::TableWriter> writer;
  std::vector<bullion::ShardInfo> shards;
  uint64_t shard_rows = 0;
  uint32_t shard_groups = 0;

  auto close_shard = [&]() -> Status {
    if (writer == nullptr) return Status::OK();
    Span span(tracer, "format.finish", shards.size());
    BULLION_RETURN_NOT_OK(writer->Finish());
    BULLION_RETURN_NOT_OK(file->Flush());
    shards.push_back(bullion::ShardInfo{
        "replay.shard-" + std::to_string(shards.size()), shard_rows,
        shard_groups, 0, 0, {}, {}});
    writer.reset();
    file.reset();
    shard_rows = 0;
    shard_groups = 0;
    return Status::OK();
  };
  auto drain_one = [&]() -> Status {
    std::unique_ptr<Pending> p = std::move(pending.front());
    pending.pop_front();
    {
      Span wait(tracer, "exec.wait", p->group, p->span);
      BULLION_RETURN_NOT_OK(p->tasks->Wait());
    }
    if (writer == nullptr) {
      BULLION_ASSIGN_OR_RETURN(
          file, dir->Create("replay.shard-" + std::to_string(shards.size())));
      writer = std::make_unique<bullion::TableWriter>(in.schema, file.get(),
                                                       wopts);
    }
    {
      Span commit(tracer, "format.commit", p->group, p->span);
      BULLION_RETURN_NOT_OK(writer->CommitEncodedGroup(*p->staged, p->pages));
    }
    if (tracer != nullptr) tracer->End(p->span);
    shard_rows += p->staged->row_count;
    shard_groups += 1;
    if (shard_rows >= cfg.rows_per_shard) BULLION_RETURN_NOT_OK(close_shard());
    return Status::OK();
  };
  auto run = [&]() -> Status {
    for (uint64_t g = 0; g < cfg.replay_groups; ++g) {
      auto p = std::make_unique<Pending>();
      p->group = g;
      p->span = tracer != nullptr && tracer->enabled()
                    ? tracer->Begin("bench.group", g, 0)
                    : 0;
      auto columns = std::make_shared<const std::vector<ColumnVector>>(
          in.batches[g % in.batches.size()]);
      {
        Span stage(tracer, "format.stage", g, p->span);
        BULLION_ASSIGN_OR_RETURN(
            bullion::StagedRowGroup staged,
            bullion::StageRowGroup(in.schema, wopts, std::move(columns)));
        p->staged =
            std::make_shared<const bullion::StagedRowGroup>(std::move(staged));
      }
      p->pages.resize(p->staged->num_tasks());
      p->tasks = std::make_unique<bullion::TaskGroup>(&pool);
      Pending* raw = p.get();
      for (size_t t = 0; t < raw->staged->num_tasks(); ++t) {
        raw->tasks->Submit([raw, t, tracer]() -> Status {
          Span enc(tracer, "format.encode_page", raw->group, raw->span);
          BULLION_ASSIGN_OR_RETURN(raw->pages[t],
                                   bullion::EncodeStagedPage(*raw->staged, t));
          return Status::OK();
        });
      }
      pending.push_back(std::move(p));
      if (pending.size() > window) BULLION_RETURN_NOT_OK(drain_one());
    }
    while (!pending.empty()) BULLION_RETURN_NOT_OK(drain_one());
    BULLION_RETURN_NOT_OK(close_shard());
    Span manifest(tracer, "dataset.manifest", 0);
    res.manifest = ShardManifest(shards);
    return PublishManifest(dir, res.manifest, "replay");
  };
  uint64_t t0 = NowNs();
  res.status = run();
  // Join every in-flight encode before the pending state goes away.
  for (auto& p : pending) p->tasks->Wait().IgnoreError();
  res.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  return res;
}

}  // namespace

Status RunIngest(const Args& args, Report* report, Tracer* tracer) {
  const IngestConfig cfg = ConfigFor(args);
  const size_t threads = BenchThreads();
  IngestInputs in;
  FileDir warm(args.dir + "/warmup");

  // Set-up: generate the batches, then warm the write path (pool,
  // code, page cache) with one short ingest that is thrown away.
  BULLION_ASSIGN_OR_RETURN(
      double setup_s,
      MedianSetupSeconds(SetupReps(args), [&](size_t) -> Status {
        BULLION_RETURN_NOT_OK(GenerateInputs(args, cfg, &in));
        BULLION_RETURN_NOT_OK(RemoveTree(warm.path()));
        BULLION_RETURN_NOT_OK(MakeDir(warm.path()));
        return WriteDataset(&warm, in.schema, in.batches, "warm",
                            cfg.rows_per_shard, cfg.rows_per_group,
                            bullion::WriterOptions{}, threads)
            .status();
      }));
  BULLION_RETURN_NOT_OK(RemoveTree(warm.path()));
  report->Metric("setup_s", setup_s, "s");
  report->Note("leaves", std::to_string(in.schema.num_leaves()));
  report->Note("rows_per_group", std::to_string(cfg.rows_per_group));

  if (args.trace) {
    FileDir dir(args.dir + "/replay");
    // Untraced replay first, then the same replay with spans: the
    // difference is the tracing overhead.
    double wall[2] = {0, 0};
    ShardManifest manifest;
    for (int traced = 0; traced < 2; ++traced) {
      BULLION_RETURN_NOT_OK(RemoveTree(dir.path()));
      BULLION_RETURN_NOT_OK(MakeDir(dir.path()));
      tracer->Clear();
      tracer->Enable(traced == 1);
      bullion::obs::MetricsRegistry::Global().ResetAll();
      bullion::IoStatsSnapshot before = dir.stats().Snapshot();
      ReplayResult r = ReplayIngest(&dir, cfg, in, threads, tracer);
      tracer->Enable(false);
      report->Attempt(r.status.ok(), "ingest replay: " + r.status.ToString());
      BULLION_RETURN_NOT_OK(r.status);
      wall[traced] = r.wall_s;
      manifest = r.manifest;
      if (traced == 1) {
        bullion::IoStatsSnapshot d =
            bullion::IoStatsDelta(before, dir.stats().Snapshot());
        const double groups = static_cast<double>(cfg.replay_groups);
        report->Metric("io.write_calls", d.write_calls / groups, "count");
        report->Metric("io.write_bytes", d.bytes_written / groups, "B");
        report->Metric("io.write_us_p99",
                       RegistryHist("bullion.io.write_ns").p99 / 1e3, "us");
        report->Metric("format.stage_ms",
                       tracer->BusySeconds("format.stage") * 1e3 / groups,
                       "ms");
        Samples enc = tracer->DurationsUs("format.encode_page");
        report->Metric("format.encode_page_us_p50", enc.Median(), "us");
        report->Metric("format.encode_page_us_p99", enc.Quantile(0.99), "us");
        double busy = enc.Sum() / 1e6;
        report->Metric("format.encode_busy_s", busy, "s");
        report->Metric("format.commit_ms",
                       (tracer->BusySeconds("format.commit") +
                        tracer->BusySeconds("format.finish")) *
                           1e3 / groups,
                       "ms");
        report->Metric("exec.write_stall_ms",
                       tracer->BusySeconds("exec.wait") * 1e3, "ms");
        report->Metric("exec.write_parallel_eff",
                       busy / (r.wall_s * static_cast<double>(threads)),
                       "ratio");
        report->Metric("exec.queue_wait_us_p99",
                       RegistryHist("bullion.exec.queue_wait_ns").p99 / 1e3,
                       "us");
        ReportLayerSelfTimes(*tracer, cfg.replay_groups, report);
        BULLION_RETURN_NOT_OK(tracer->WriteChromeTrace(args.trace_file));
      }
    }
    report->Metric("bench.trace_overhead_frac", (wall[1] - wall[0]) / wall[0],
                   "ratio");
    BULLION_RETURN_NOT_OK(ProfileCodecs(&dir, manifest, {}, report));
    CheckScanBack(&dir, manifest, in, report);
    FillIdleLayers(report);
    ReportCommon(report);
    return Status::OK();
  }

  // Untraced run: one ingest job for --seconds.
  FileDir dir(args.dir + "/ingest");
  BULLION_RETURN_NOT_OK(MakeDir(dir.path()));
  BULLION_ASSIGN_OR_RETURN(
      auto writer,
      bullion::ShardedWriteBuilder(
          in.schema,
          [&dir](const std::string& name) { return dir.Create(name); })
          .BaseName("ingest")
          .RowsPerShard(cfg.rows_per_shard)
          .RowsPerGroup(cfg.rows_per_group)
          .Options(bullion::WriterOptions{})
          .Threads(threads)
          .Build());
  Samples append_ms;
  uint64_t logical = 0;
  const uint64_t t0 = NowNs();
  const uint64_t deadline = t0 + static_cast<uint64_t>(args.seconds * 1e9);
  size_t i = 0;
  do {
    const auto& batch = in.batches[i % in.batches.size()];
    uint64_t a0 = NowNs();
    Status st = writer->Append(batch);
    append_ms.Add(NsToMs(NowNs() - a0));
    report->Attempt(st.ok(), "ingest append: " + st.ToString());
    BULLION_RETURN_NOT_OK(st);
    logical += LogicalBytes(batch);
    ++i;
  } while (NowNs() < deadline);
  auto manifest = writer->Finish();
  report->Attempt(manifest.ok(),
                  "ingest finish: " + manifest.status().ToString());
  BULLION_RETURN_NOT_OK(manifest.status());
  Status pub = PublishManifest(&dir, *manifest, "ingest");
  const uint64_t t1 = NowNs();
  report->Attempt(pub.ok(), "ingest manifest: " + pub.ToString());
  BULLION_RETURN_NOT_OK(pub);

  const double secs = static_cast<double>(t1 - t0) / 1e9;
  const double mb_s = static_cast<double>(logical) / 1e6 / secs;
  BULLION_ASSIGN_OR_RETURN(uint64_t stored,
                           DatasetBytes(&dir, *manifest, "ingest"));
  const double ratio =
      static_cast<double>(stored) / static_cast<double>(logical);
  report->Metric("mb_s", mb_s, "MB/s");
  report->Metric("ingest_mb_s", mb_s, "MB/s");
  report->Metric("bytes_ratio", ratio, "ratio");
  report->Metric("ingest_stored_ratio", ratio, "ratio");
  report->Metric("p50_ms", append_ms.Median(), "ms");
  report->Metric("tail_ms", append_ms.Quantile(0.9), "ms");
  report->Metric("tail_percentile", 90, "pct");
  report->Metric("append_samples", static_cast<double>(append_ms.size()),
                 "count");
  report->Metric("ingest_logical_mb", static_cast<double>(logical) / 1e6, "MB");
  if (!append_ms.Supports(0.9)) {
    report->Note("warning", "fewer than ten Append samples beyond p90");
  }
  CheckScanBack(&dir, *manifest, in, report);
  ReportCommon(report);
  return Status::OK();
}

}  // namespace perfbench
