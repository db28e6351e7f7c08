// Workload `train_scan`: training epochs over a sharded ads dataset.
// Set-up writes the ingest generator's corpus (BuildAdsSchema(0.02),
// 2048 rows, 256-row groups, 4 shards) through ShardedWriteBuilder.
// Each epoch then reopens the dataset (ShardedTableReader::Open) and
// bullion::Scan()s a fixed, seeded 10% projection of the leaves that
// mixes list<int64>, float-list and scalar columns, with
// Threads(min(nproc, 4)) and a DecodedChunkCache whose budget is a
// quarter of one epoch's decoded projection (working set = 4x cache).
//
// Why: fetch -> decode -> stream is where the kernel-to-scan gap
// lives. Encode does no work once the corpus is written; the cache is
// exercised but cannot hold the working set. Run length comes from
// repeated epochs, not corpus size, because write cost bounds the
// corpus.
//
// Layer -> end-to-end map on this workload:
//   format.open_footer_us, io.plan_us, dataset.open_us -> p50_ms
//                                                        (scan_first_batch_ms)
//   format.decode_chunk_us / decode_busy_s             -> mb_s (scan_mb_s)
//   io.reads / read_bytes / read_us                    -> mb_s, bytes_ratio
//   exec.scan_stall_ms / scan_parallel_eff / queue_wait -> mb_s
//   dataset.cache_hit_rate / evictions / insert_us     -> mb_s
//   encoding.decode_gbs.*                              -> mb_s
//   core.scan_layer_frac                               -> mb_s
//
// The traced run measures front-door epochs with a PipelineReport and
// IoStats attached (stall and wall come from the same drain), then
// replays epochs through TableReader::Open, PlanProjection,
// RandomAccessFile::Read, DecodeCoalescedRead and the chunk cache, with
// the units fanned over an exec ThreadPool.
#include <algorithm>
#include <atomic>

#include "common/random.h"
#include "core/scan.h"
#include "dataset/chunk_cache.h"
#include "exec/thread_pool.h"
#include "format/reader.h"
#include "obs/pipeline_report.h"
#include "workload/ads_schema.h"
#include "workloads.h"

namespace perfbench {

using bullion::ShardManifest;

namespace {

// The projection is part of the workload's definition, the same for
// every --seed (only the data changes with --seed): different leaf
// sets would be different workloads.
constexpr uint64_t kProjectionSeed = 20250117;

struct ScanConfig {
  double scale = 0.02;
  size_t rows = 2048;
  uint32_t rows_per_group = 256;
  uint64_t rows_per_shard = 512;
  double projection_frac = 0.10;
  size_t replay_epochs = 12;
};

ScanConfig ConfigFor(const Args& args) {
  ScanConfig c;
  if (args.tiny) {
    c.rows = 128;
    c.rows_per_group = 32;
    c.rows_per_shard = 64;
    c.replay_epochs = 2;
  }
  return c;
}

/// A seeded projection of ~10% of the leaves with at least one
/// list<int64>, one float list and one scalar leaf.
std::vector<uint32_t> PickProjection(const bullion::Schema& schema,
                                     double frac, uint64_t seed) {
  bullion::Random rng(seed);
  const auto& leaves = schema.leaves();
  std::vector<uint32_t> int_lists, float_lists, scalars, all;
  for (uint32_t i = 0; i < leaves.size(); ++i) {
    const auto& l = leaves[i];
    bool is_float = l.physical == bullion::PhysicalType::kFloat32 ||
                    l.physical == bullion::PhysicalType::kFloat64;
    if (l.list_depth == 0) {
      scalars.push_back(i);
    } else if (is_float) {
      float_lists.push_back(i);
    } else if (l.physical == bullion::PhysicalType::kInt64) {
      int_lists.push_back(i);
    }
    all.push_back(i);
  }
  std::vector<uint32_t> pick;
  for (const auto* kind : {&int_lists, &float_lists, &scalars}) {
    if (!kind->empty()) pick.push_back((*kind)[rng.Uniform(kind->size())]);
  }
  size_t want = std::max<size_t>(
      pick.size(), static_cast<size_t>(frac * leaves.size() + 0.5));
  while (pick.size() < want) {
    uint32_t c = all[rng.Uniform(all.size())];
    if (std::find(pick.begin(), pick.end(), c) == pick.end()) pick.push_back(c);
  }
  std::sort(pick.begin(), pick.end());
  return pick;
}

/// Order-sensitive checksum of one epoch: row groups in order, then
/// projection slots in order.
struct EpochSum {
  uint64_t sum = 0x6a09e667f3bcc908ull;
  uint64_t bytes = 0;
  uint64_t groups = 0;
  void Add(const std::vector<ColumnVector>& cols) {
    for (const ColumnVector& c : cols) {
      sum = ColumnChecksum(c, sum);
      bytes += bullion::ApproxColumnVectorBytes(c);
    }
    ++groups;
  }
};

struct ScanCorpus {
  FileDir* dir = nullptr;
  bullion::Schema schema;
  ShardManifest manifest;
  std::vector<uint32_t> projection;
};

struct EpochResult {
  uint64_t open_to_first_ns = 0;
  uint64_t wall_ns = 0;
  EpochSum sum;
  Status status;
};

/// One front-door epoch: reopen, Scan, drain. The checksum is taken
/// after the clock stops.
EpochResult FrontDoorEpoch(const ScanCorpus& corpus, size_t threads,
                           bullion::DecodedChunkCache* cache,
                           bullion::IoStats* stats,
                           bullion::obs::PipelineReport* report,
                           Tracer* tracer, uint64_t epoch) {
  EpochResult r;
  std::vector<bullion::RowBatch> batches;
  Span ep(tracer, "core.scan_epoch", epoch);
  const uint64_t t0 = NowNs();
  auto run = [&]() -> Status {
    std::unique_ptr<bullion::ShardedTableReader> ds;
    {
      Span open(tracer, "dataset.open", epoch, ep.index());
      BULLION_ASSIGN_OR_RETURN(ds, OpenDataset(corpus.dir, corpus.manifest));
    }
    BULLION_ASSIGN_OR_RETURN(auto stream, bullion::Scan(ds.get())
                                              .ColumnIndices(corpus.projection)
                                              .Threads(threads)
                                              .BatchRows(0)
                                              .Cache(cache)
                                              .Stats(stats)
                                              .Report(report)
                                              .Stream());
    for (;;) {
      bullion::RowBatch batch;
      BULLION_ASSIGN_OR_RETURN(bool more, stream->Next(&batch));
      if (!more) break;
      if (batches.empty()) r.open_to_first_ns = NowNs() - t0;
      batches.push_back(std::move(batch));
    }
    return Status::OK();
  };
  r.status = run();
  r.wall_ns = NowNs() - t0;
  for (const auto& b : batches) r.sum.Add(b.columns);
  return r;
}

/// Reference checksum from the serial TableReader::ReadProjection path.
Result<EpochSum> SerialReference(const ScanCorpus& corpus) {
  EpochSum sum;
  for (const bullion::ShardInfo& info : corpus.manifest.shards()) {
    BULLION_ASSIGN_OR_RETURN(auto file, corpus.dir->OpenRead(info.name));
    BULLION_ASSIGN_OR_RETURN(auto reader,
                             bullion::TableReader::Open(std::move(file)));
    for (uint32_t g = 0; g < reader->num_row_groups(); ++g) {
      std::vector<ColumnVector> cols;
      BULLION_RETURN_NOT_OK(reader->ReadProjection(g, corpus.projection,
                                                   bullion::ReadOptions{},
                                                   &cols));
      sum.Add(cols);
    }
  }
  return sum;
}

/// One replayed epoch through the layer calls, units fanned over
/// `pool`; the cache plays the front door's DecodedChunkCache.
Result<EpochSum> ReplayEpoch(const ScanCorpus& corpus,
                             bullion::ThreadPool* pool,
                             bullion::DecodedChunkCache* cache, Tracer* tracer,
                             uint64_t epoch) {
  Span ep(tracer, "bench.epoch", epoch);
  std::vector<std::unique_ptr<bullion::TableReader>> readers;
  {
    Span open(tracer, "dataset.open", epoch, ep.index());
    for (const bullion::ShardInfo& info : corpus.manifest.shards()) {
      Span footer(tracer, "format.open_footer", epoch, open.index());
      BULLION_ASSIGN_OR_RETURN(auto file, corpus.dir->OpenRead(info.name));
      BULLION_ASSIGN_OR_RETURN(auto reader,
                               bullion::TableReader::Open(std::move(file)));
      readers.push_back(std::move(reader));
    }
  }
  struct Unit {
    uint32_t shard = 0;
    uint32_t group = 0;
    std::vector<ColumnVector> out;
  };
  std::vector<Unit> units;
  for (uint32_t s = 0; s < readers.size(); ++s) {
    for (uint32_t g = 0; g < readers[s]->num_row_groups(); ++g) {
      units.push_back(Unit{s, g, {}});
    }
  }
  const bullion::ReadOptions ropts;
  const size_t parent = ep.index();
  bullion::TaskGroup tasks(pool, 2 * pool->num_threads());
  for (size_t u = 0; u < units.size(); ++u) {
    tasks.Submit([&, u]() -> Status {
      Unit& unit = units[u];
      const bullion::TableReader& reader = *readers[unit.shard];
      const bullion::ShardInfo& info = corpus.manifest.shard(unit.shard);
      Span us(tracer, "exec.unit", u, parent);
      const size_t n = corpus.projection.size();
      unit.out.assign(n, ColumnVector());
      std::vector<size_t> missing;
      auto key = [&](uint32_t column) {
        bullion::ChunkCacheKey k;
        k.shard = unit.shard;
        k.row_group = unit.group;
        k.column = column;
        k.filter_deleted = ropts.filter_deleted;
        k.verify_checksums = ropts.verify_checksums;
        k.generation = info.generation;
        k.deleted_rows = reader.footer().DeletedCount(unit.group);
        return k;
      };
      {
        Span probe(tracer, "dataset.cache_probe", u, us.index());
        for (size_t i = 0; i < n; ++i) {
          if (!cache->Lookup(key(corpus.projection[i]), &unit.out[i])) {
            missing.push_back(i);
          }
        }
      }
      if (missing.empty()) return Status::OK();
      std::vector<uint32_t> cols;
      for (size_t i : missing) cols.push_back(corpus.projection[i]);
      bullion::ReadPlan plan;
      {
        Span span(tracer, "io.plan", u, us.index());
        BULLION_ASSIGN_OR_RETURN(
            plan, reader.PlanProjection(unit.group, cols, ropts));
      }
      std::vector<ColumnVector> decoded(cols.size());
      for (const bullion::CoalescedRead& read : plan.reads) {
        bullion::Buffer bytes;
        {
          Span span(tracer, "io.read", u, us.index());
          span.set_bytes(read.size());
          BULLION_RETURN_NOT_OK(
              reader.file()->Read(read.begin, read.size(), &bytes));
        }
        Span span(tracer, "format.decode_chunk", u, us.index());
        BULLION_RETURN_NOT_OK(reader.DecodeCoalescedRead(
            unit.group, cols, read, bytes.AsSlice(), ropts, &decoded));
      }
      Span insert(tracer, "dataset.cache_insert", u, us.index());
      for (size_t j = 0; j < missing.size(); ++j) {
        cache->Insert(key(cols[j]), decoded[j]);
        unit.out[missing[j]] = std::move(decoded[j]);
      }
      return Status::OK();
    });
  }
  BULLION_RETURN_NOT_OK(tasks.Wait());
  EpochSum sum;
  for (const Unit& unit : units) sum.Add(unit.out);
  return sum;
}

}  // namespace

Status RunTrainScan(const Args& args, Report* report, Tracer* tracer) {
  const ScanConfig cfg = ConfigFor(args);
  const size_t threads = BenchThreads();
  FileDir dir(args.dir + "/scan");
  ScanCorpus corpus;
  corpus.dir = &dir;
  std::unique_ptr<bullion::DecodedChunkCache> cache;
  // Stream counters and the cache's hits/misses/evictions, one record.
  bullion::IoStats stats;

  // Set-up: generate + write the corpus, open it, size the cache, and
  // warm everything with one epoch.
  BULLION_ASSIGN_OR_RETURN(
      double setup_s,
      MedianSetupSeconds(SetupReps(args), [&](size_t) -> Status {
        BULLION_RETURN_NOT_OK(RemoveTree(dir.path()));
        BULLION_RETURN_NOT_OK(MakeDir(dir.path()));
        corpus.schema = bullion::workload::BuildAdsSchema(cfg.scale);
        bullion::workload::AdsDataOptions dopts;
        dopts.seq_length = 16;
        std::vector<std::vector<ColumnVector>> batches;
        for (size_t r = 0, i = 0; r < cfg.rows; r += cfg.rows_per_group, ++i) {
          batches.push_back(bullion::workload::GenerateAdsData(
              corpus.schema, cfg.rows_per_group, args.seed * 7919 + i, dopts));
        }
        BULLION_ASSIGN_OR_RETURN(
            corpus.manifest,
            WriteDataset(&dir, corpus.schema, batches, "scan",
                         cfg.rows_per_shard, cfg.rows_per_group,
                         bullion::WriterOptions{}, threads));
        corpus.projection = PickProjection(corpus.schema, cfg.projection_frac,
                                           kProjectionSeed);
        uint64_t projected = 0;
        for (const auto& b : batches) {
          for (uint32_t c : corpus.projection) {
            projected += bullion::ApproxColumnVectorBytes(b[c]);
          }
        }
        cache =
            std::make_unique<bullion::DecodedChunkCache>(projected / 4, &stats);
        EpochResult warm = FrontDoorEpoch(corpus, threads, cache.get(), nullptr,
                                          nullptr, nullptr, 0);
        return warm.status;
      }));
  report->Metric("setup_s", setup_s, "s");
  report->Note("projection_leaves",
               std::to_string(corpus.projection.size()) + " of " +
                   std::to_string(corpus.schema.num_leaves()));
  report->Note("cache_budget_bytes", std::to_string(cache->capacity_bytes()));

  BULLION_ASSIGN_OR_RETURN(EpochSum reference, SerialReference(corpus));
  auto check = [&](const EpochSum& got, const char* what) {
    report->Attempt(got.sum == reference.sum && got.groups == reference.groups,
                    std::string(what) + " checksum differs from the serial "
                                        "ReadProjection path");
  };

  bullion::obs::PipelineReport pipe;
  Samples epoch_ms, first_ms, rate, stall_ms, eff;
  uint64_t logical = 0;
  uint64_t fetched = 0;
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  if (args.trace) {
    bullion::obs::MetricsRegistry::Global().ResetAll();
    tracer->Clear();
    tracer->Enable(true);
  }
  bullion::IoStatsSnapshot before = stats.Snapshot();
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(budget * 1e9);
  uint64_t epochs = 0;
  do {
    pipe.Reset();
    EpochResult r = FrontDoorEpoch(corpus, threads, cache.get(), &stats, &pipe,
                                   tracer, epochs);
    report->Attempt(r.status.ok(), "scan epoch: " + r.status.ToString());
    BULLION_RETURN_NOT_OK(r.status);
    check(r.sum, "scan epoch");
    ++epochs;
    epoch_ms.Add(NsToMs(r.wall_ns));
    first_ms.Add(NsToMs(r.open_to_first_ns));
    rate.Add(static_cast<double>(r.sum.bytes) / 1e6 /
             (static_cast<double>(r.wall_ns) / 1e9));
    logical += r.sum.bytes;
    fetched += pipe.bytes.load();
    stall_ms.Add(NsToMs(pipe.stall_ns.load()));
    double wall = static_cast<double>(pipe.wall_ns.load());
    eff.Add(wall > 0 ? static_cast<double>(pipe.work_ns.load()) /
                           (wall * static_cast<double>(threads))
                     : 0);
  } while (NowNs() < deadline);
  bullion::IoStatsSnapshot d = bullion::IoStatsDelta(before, stats.Snapshot());
  report->Attempt(d.batches_emitted == epochs * reference.groups,
                  "IoStats.batches_emitted disagrees with the batches drained");

  if (!args.trace) {
    report->Metric("mb_s", rate.Median(), "MB/s");
    report->Metric("scan_mb_s", rate.Median(), "MB/s");
    report->Metric("p50_ms", first_ms.Median(), "ms");
    report->Metric("scan_first_batch_ms", first_ms.Median(), "ms");
    report->Metric("tail_ms", first_ms.Quantile(0.9), "ms");
    report->Metric("tail_percentile", 90, "pct");
    report->Metric("epoch_ms_p50", epoch_ms.Median(), "ms");
    report->Metric("epochs", static_cast<double>(epochs), "count");
    report->Metric("bytes_ratio",
                   static_cast<double>(fetched) / static_cast<double>(logical),
                   "ratio");
    report->Metric("cache_hit_rate",
                   static_cast<double>(d.cache_hits) /
                       std::max<double>(1, d.cache_hits + d.cache_misses),
                   "ratio");
    if (!first_ms.Supports(0.9)) {
      report->Note("warning", "fewer than ten epochs beyond p90");
    }
    ReportCommon(report);
    return Status::OK();
  }

  // Traced run, part 1: the front-door epochs above.
  tracer->Enable(false);
  const double n_epochs = static_cast<double>(epochs);
  report->Metric("exec.scan_stall_ms", stall_ms.Median(), "ms");
  report->Metric("exec.scan_parallel_eff", eff.Median(), "ratio");
  report->Metric("exec.queue_wait_us_p99",
                 RegistryHist("bullion.exec.queue_wait_ns").p99 / 1e3, "us");
  report->Metric("dataset.open_us",
                 tracer->DurationsUs("dataset.open").Median(), "us");
  report->Metric("dataset.cache_hit_rate",
                 static_cast<double>(d.cache_hits) /
                     std::max<double>(1, d.cache_hits + d.cache_misses),
                 "ratio");
  report->Metric("dataset.cache_evictions", d.cache_evictions / n_epochs,
                 "count");
  report->Metric("dataset.cache_insert_us_p99",
                 RegistryHist("bullion.cache.insert_ns").p99 / 1e3, "us");
  report->Metric("io.aio_submit_us_p50",
                 RegistryHist("bullion.aio.submit_ns").p50 / 1e3, "us");
  report->Metric("io.aio_complete_us_p50",
                 RegistryHist("bullion.aio.complete_ns").p50 / 1e3, "us");
  const double front_epoch_s = epoch_ms.Median() / 1e3;
  // The front door's own time: epochs minus the dataset opens inside.
  const double core_self_ms = tracer->LayerSelfMs()["core"] / n_epochs;

  // Part 2: replayed epochs, untraced then traced.
  double wall[2] = {0, 0};
  for (int traced = 0; traced < 2; ++traced) {
    bullion::ThreadPool pool(threads);
    bullion::DecodedChunkCache replay_cache(cache->capacity_bytes());
    BULLION_ASSIGN_OR_RETURN(EpochSum warm, ReplayEpoch(corpus, &pool,
                                                        &replay_cache, nullptr,
                                                        0));
    check(warm, "replay epoch");
    tracer->Clear();
    tracer->Enable(traced == 1);
    const uint64_t t0 = NowNs();
    for (size_t e = 0; e < cfg.replay_epochs; ++e) {
      auto sum = ReplayEpoch(corpus, &pool, &replay_cache, tracer, e);
      report->Attempt(sum.ok(), "replay epoch: " + sum.status().ToString());
      BULLION_RETURN_NOT_OK(sum.status());
      check(*sum, "replay epoch");
    }
    wall[traced] = static_cast<double>(NowNs() - t0) / 1e9;
    tracer->Enable(false);
  }
  const double re = static_cast<double>(cfg.replay_epochs);
  report->Metric("bench.trace_overhead_frac", (wall[1] - wall[0]) / wall[0],
                 "ratio");
  report->Metric("format.open_footer_us",
                 tracer->DurationsUs("format.open_footer").Median(), "us");
  report->Metric("io.plan_us", tracer->DurationsUs("io.plan").Median(), "us");
  Samples reads = tracer->DurationsUs("io.read");
  report->Metric("io.reads", reads.size() / re, "count");
  report->Metric("io.read_bytes", tracer->Bytes("io.read") / re, "B");
  report->Metric("io.read_us_p50", reads.Median(), "us");
  report->Metric("io.read_us_p99", reads.Quantile(0.99), "us");
  Samples decode = tracer->DurationsUs("format.decode_chunk");
  report->Metric("format.decode_chunk_us_p50", decode.Median(), "us");
  report->Metric("format.decode_chunk_us_p99", decode.Quantile(0.99), "us");
  report->Metric("format.decode_busy_s", decode.Sum() / 1e6 / re, "s");
  report->Metric("core.scan_layer_frac",
                 tracer->LayerThreadSeconds({"io", "format", "encoding"}) / re /
                     (front_epoch_s * static_cast<double>(threads)),
                 "ratio");
  ReportLayerSelfTimes(*tracer, cfg.replay_epochs, report);
  report->Metric("core.self_ms_per_op", core_self_ms, "ms");
  BULLION_RETURN_NOT_OK(tracer->WriteChromeTrace(args.trace_file));
  BULLION_RETURN_NOT_OK(
      ProfileCodecs(&dir, corpus.manifest, corpus.projection, report));
  FillIdleLayers(report);
  ReportCommon(report);
  return Status::OK();
}

}  // namespace perfbench
