// Workload `serve_lookup`: point lookups of features from a narrow
// keyed sharded dataset (int64 uid = 2 * row, float64 score, binary
// tag, list<int64> clk_seq; 65536 rows in 4 shards, 4096-row groups,
// 256-row pages, Bloom filters at 10 bits/key) through
// bullion::Lookup(...).Key("uid", k).Columns({uid, score, tag})
// .Threads(1).Run(), with late materialization on (the default) and a
// shared DecodedChunkCache that holds the Zipf hot set.
//
// Load is an open loop: Poisson arrivals at a fixed rate from one
// seeded generator, served by min(nproc, 4) client threads. Each
// request is timed from its due time, so a stall also charges the
// requests queued behind it; the generator's own lateness is reported.
// Keys are Zipf (s = 1.1) over the rows: 60% hits and 40% in-zone
// misses (odd uids) that only a Bloom filter can reject before a read.
//
// Why: the same BatchStream stack that streams epochs also serves
// tiny selective reads, where per-operation overhead dominates (thread
// hop, planning, row copies, Bloom probes) and bulk decode does little.
// A change that speeds train_scan but adds per-operation cost shows
// here.
//
// Layer -> end-to-end map on this workload:
//   serve.service_us_p50/_p99                -> p50_ms / tail_ms
//   serve.reads_per_lookup / bytes_per_lookup -> p50_ms, bytes_ratio
//   serve.bloom_negative_rate / bloom_fpr     -> p50_ms
//   exec.groups_pruned_per_lookup             -> p50_ms
//   dataset.shards_pruned_per_lookup          -> p50_ms
//   dataset.cache_hit_rate / cache_insert_us  -> tail_ms
//   io.plan_us, io.aio_submit/complete_us     -> p50_ms
//   format.decode_page_run_us_p50             -> p50_ms
//   core.lookup_layer_frac                    -> p50_ms
//   bench.gen_late_us_p99                     -> validity of p50/tail
//
// The traced run serves the same open loop with a span around every
// Run(), then replays lookups through the layer calls: manifest Bloom
// probe, footer zone map + chunk Bloom probe, PlanProjection + read +
// DecodeCoalescedRead of the key chunk, and PageRunExtent + read +
// DecodePageRun of the other projected columns (late materialization).
#include <atomic>
#include <cmath>
#include <thread>

#include "common/random.h"
#include "core/scan.h"
#include "dataset/chunk_cache.h"
#include "format/reader.h"
#include "obs/pipeline_report.h"
#include "serve/bloom.h"
#include "serve/lookup.h"
#include "workload/zipf.h"
#include "workloads.h"

namespace perfbench {

using bullion::ShardManifest;

namespace {

// Offered load, fixed: about a third of the closed-loop capacity
// measured at the commit that introduced this workload (47-56k
// lookups/s with 4 client threads on a quiet 4-core x86 container,
// AVX2, io_uring; `--closed-loop` re-measures it). At half capacity a
// neighbour taking half the host's CPU saturates the loop and the
// queue grows without bound; a third leaves that headroom.
constexpr double kLookupsPerSecond = 16000;

// Share of requests whose key exists. Misses the Bloom filters reject
// cost a fraction of a hit, so at a 50/50 mix the median falls on the
// boundary between the two modes and jumps between them from run to
// run; at 60/40 it sits inside the hit mode.
constexpr double kHitFraction = 0.6;

struct LookupConfig {
  size_t rows = 65536;
  uint32_t rows_per_group = 4096;
  uint64_t rows_per_shard = 16384;
  uint32_t rows_per_page = 256;
  double rate = kLookupsPerSecond;
  size_t warmup_lookups = 4000;
  size_t replay_lookups = 2000;
  size_t exactness_samples = 32;
};

LookupConfig ConfigFor(const Args& args) {
  LookupConfig c;
  if (args.tiny) {
    c.rows = 2048;
    c.rows_per_group = 256;
    c.rows_per_shard = 512;
    c.rate = 500;
    c.warmup_lookups = 50;
    c.replay_lookups = 50;
    c.exactness_samples = 4;
  }
  return c;
}

const std::vector<std::string> kProjection = {"uid", "score", "tag"};

struct Corpus {
  FileDir* dir = nullptr;
  bullion::Schema schema;
  ShardManifest manifest;
  std::unique_ptr<bullion::ShardedTableReader> reader;
  std::unique_ptr<bullion::DecodedChunkCache> cache;
  bullion::IoStats cache_stats;  // the cache's hits/misses/evictions
  // Generated values of the projected columns, by row.
  std::vector<double> score;
  std::vector<std::string> tag;
  uint64_t row_bytes = 0;  // logical bytes of one projected row
};

struct Request {
  uint64_t due_ns = 0;  // from the start of the run
  int64_t key = 0;
  bool hit = false;
};

/// Poisson arrivals of Zipf keys, hits and in-zone misses.
std::vector<Request> MakeSchedule(const LookupConfig& cfg, size_t n,
                                  uint64_t seed) {
  bullion::ZipfGenerator zipf(cfg.rows, 1.1, seed);
  bullion::Random rng(seed ^ 0x5851f42d4c957f2dull);
  std::vector<Request> out(n);
  double t = 0;
  for (Request& r : out) {
    t += -std::log(1.0 - rng.NextDouble()) / cfg.rate;
    r.due_ns = static_cast<uint64_t>(t * 1e9);
    r.hit = rng.Bernoulli(kHitFraction);
    r.key = 2 * static_cast<int64_t>(zipf.Next()) + (r.hit ? 0 : 1);
  }
  return out;
}

Status BuildCorpus(const Args& args, const LookupConfig& cfg, size_t threads,
                   Corpus* c) {
  using bullion::DataType;
  using bullion::Field;
  using bullion::LogicalType;
  using bullion::PhysicalType;
  c->schema = bullion::Schema({
      Field{"uid", DataType::Primitive(PhysicalType::kInt64),
            LogicalType::kPlain, false},
      Field{"score", DataType::Primitive(PhysicalType::kFloat64),
            LogicalType::kPlain, false},
      Field{"tag", DataType::Primitive(PhysicalType::kBinary),
            LogicalType::kPlain, false},
      Field{"clk_seq",
            DataType::List(DataType::Primitive(PhysicalType::kInt64)),
            LogicalType::kIdSequence, false},
  });
  bullion::Random rng(args.seed * 2654435761ull + 17);
  std::vector<ColumnVector> cols;
  for (const auto& leaf : c->schema.leaves()) {
    cols.push_back(ColumnVector::ForLeaf(leaf));
  }
  c->score.resize(cfg.rows);
  c->tag.resize(cfg.rows);
  for (size_t r = 0; r < cfg.rows; ++r) {
    // Four-decimal scores and a 1000-word tag vocabulary: feature
    // values with structure, so the cascade picks the same codecs for
    // every seed (noise-like doubles flip between codecs whose decode
    // speeds differ 10x, which would make the latencies seed-bound).
    c->score[r] = static_cast<double>(rng.Uniform(10000)) / 10000.0;
    c->tag[r] = "tag-" + std::to_string(rng.Uniform(1000));
    std::vector<int64_t> seq(2 + rng.Uniform(5));
    for (int64_t& v : seq) v = static_cast<int64_t>(rng.Uniform(1u << 20));
    cols[0].AppendInt(2 * static_cast<int64_t>(r));
    cols[1].AppendReal(c->score[r]);
    cols[2].AppendBinary(c->tag[r]);
    cols[3].AppendIntList(seq);
  }
  const uint64_t total = LogicalBytes(cols);
  c->row_bytes = (bullion::ApproxColumnVectorBytes(cols[0]) +
                  bullion::ApproxColumnVectorBytes(cols[1]) +
                  bullion::ApproxColumnVectorBytes(cols[2])) /
                 cfg.rows;
  bullion::WriterOptions wopts;
  wopts.rows_per_page = cfg.rows_per_page;
  BULLION_ASSIGN_OR_RETURN(
      c->manifest, WriteDataset(c->dir, c->schema, {cols}, "serve",
                                cfg.rows_per_shard, cfg.rows_per_group, wopts,
                                threads));
  BULLION_ASSIGN_OR_RETURN(c->reader, OpenDataset(c->dir, c->manifest));
  // Half the decoded dataset: room for the Zipf hot set, not all rows.
  c->cache =
      std::make_unique<bullion::DecodedChunkCache>(total / 2, &c->cache_stats);
  return Status::OK();
}

Result<bullion::LookupResult> RunLookup(const Corpus& c, int64_t key,
                                        bullion::IoStats* stats,
                                        bullion::obs::PipelineReport* pipe) {
  return bullion::Lookup(c.reader.get())
      .Key("uid", key)
      .Columns(kProjection)
      .Threads(1)
      .Cache(c.cache.get())
      .Stats(stats)
      .Report(pipe)
      .Run();
}

/// Per-request outcome, checked after the run.
struct Outcome {
  uint64_t due_ns = 0;  // from the start of the loop
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  bool ok = false;
  size_t rows = 0;
  int64_t uid = -1;
  double score = 0;
  std::string tag;
};

bool OutcomeCorrect(const Corpus& c, const Request& req, const Outcome& o) {
  if (!o.ok) return false;
  if (!req.hit) return o.rows == 0;
  size_t row = static_cast<size_t>(req.key / 2);
  return o.rows == 1 && o.uid == req.key && o.score == c.score[row] &&
         o.tag == c.tag[row];
}

struct LoopResult {
  TimedSamples latency_us;  // completion - due, stamped with the due time
  Samples service_us;       // Run() alone
  Samples late_us;          // start - due
  uint64_t returned_bytes = 0;
  double wall_s = 0;
  std::vector<Outcome> outcomes;
};

/// Sleeps until `due` (steady clock). No spinning: spinning clients
/// would take the cores the I/O completions run on.
void WaitUntil(uint64_t due) {
  for (uint64_t now = NowNs(); now < due; now = NowNs()) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
  }
}

/// Serves `schedule` with `threads` client threads. Open loop: each
/// request waits for its due time; closed loop: requests run back to
/// back.
LoopResult ServeLoop(const Corpus& c, const std::vector<Request>& schedule,
                     size_t threads, bool open_loop, bullion::IoStats* stats,
                     bullion::obs::PipelineReport* pipe, Tracer* tracer) {
  // Every per-request record lives in one array sized up front, so the
  // run's memory does not depend on how requests fell across threads.
  LoopResult res;
  res.outcomes.resize(schedule.size());
  std::atomic<size_t> next{0};
  // The open loop starts 1 ms out, so the first due times are not late.
  const uint64_t t0 = NowNs() + (open_loop ? 1000000 : 0);
  std::vector<std::thread> clients;
  for (size_t t = 0; t < threads; ++t) {
    clients.emplace_back([&]() {
      for (;;) {
        size_t i = next.fetch_add(1);
        if (i >= schedule.size()) break;
        const Request& req = schedule[i];
        const uint64_t due = open_loop ? t0 + req.due_ns : NowNs();
        if (open_loop) WaitUntil(due);
        const uint64_t start = NowNs();
        Result<bullion::LookupResult> r = [&] {
          Span span(tracer, "serve.lookup", i);
          return RunLookup(c, req.key, stats, pipe);
        }();
        Outcome& o = res.outcomes[i];
        o.end_ns = NowNs() - t0;
        o.due_ns = due - t0;
        o.start_ns = start - t0;
        o.ok = r.ok();
        if (r.ok()) {
          o.rows = r->num_rows();
          if (o.rows > 0) {
            o.uid = r->columns[0].int_values()[0];
            o.score = r->columns[1].real_values()[0];
            o.tag = r->columns[2].bin_values()[0];
          }
        }
      }
    });
  }
  for (std::thread& th : clients) th.join();
  res.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  for (const Outcome& o : res.outcomes) {
    res.latency_us.Add(o.due_ns, NsToUs(o.end_ns - o.due_ns));
    res.service_us.Add(NsToUs(o.end_ns - o.start_ns));
    res.late_us.Add(NsToUs(o.start_ns - o.due_ns));
    res.returned_bytes += o.rows * c.row_bytes;
  }
  return res;
}

/// A filtered Scan drained and concatenated: the ground truth a Lookup
/// must equal byte for byte.
Result<std::vector<ColumnVector>> ScanTruth(const Corpus& c, int64_t key) {
  BULLION_ASSIGN_OR_RETURN(auto stream,
                           bullion::Scan(c.reader.get())
                               .Columns(kProjection)
                               .Filter("uid", bullion::CompareOp::kEq, key)
                               .Threads(1)
                               .Stream());
  std::vector<ColumnVector> out;
  bullion::RowBatch batch;
  for (;;) {
    BULLION_ASSIGN_OR_RETURN(bool more, stream->Next(&batch));
    if (!more) break;
    if (out.empty()) {
      out = std::move(batch.columns);
      continue;
    }
    for (size_t i = 0; i < out.size(); ++i) {
      out[i].AppendAllFrom(batch.columns[i]);
    }
  }
  return out;
}

void CheckExactness(const Corpus& c, const std::vector<Request>& schedule,
                    size_t samples, uint64_t seed, Report* report) {
  bullion::Random rng(seed);
  for (size_t s = 0; s < samples && !schedule.empty(); ++s) {
    const Request& req = schedule[rng.Uniform(schedule.size())];
    auto got = RunLookup(c, req.key, nullptr, nullptr);
    auto want = ScanTruth(c, req.key);
    bool same = got.ok() && want.ok() &&
                (want->empty() ? got->num_rows() == 0
                               : got->columns == *want);
    report->Attempt(same, "lookup of " + std::to_string(req.key) +
                              " differs from the filtered Scan");
  }
}

/// Counters of the replay's Bloom probes.
struct ReplayStats {
  uint64_t misses = 0;       // miss keys replayed
  uint64_t misses_read = 0;  // ... that every Bloom filter let through
};

/// One lookup replayed through the layer calls (late materialization:
/// key chunk first, then only the page runs holding the matching row).
Result<Outcome> ReplayLookup(
    const Corpus& c,
    const std::vector<std::unique_ptr<bullion::TableReader>>& readers,
    const Request& req, uint64_t id, Tracer* tracer, ReplayStats* rs) {
  Span root(tracer, "serve.replay_lookup", id);
  const bullion::ReadOptions ropts;
  const uint64_t h = bullion::BloomHashInt(req.key);
  Outcome o;
  o.ok = true;
  bool read_key_chunk = false;
  for (size_t s = 0; s < readers.size(); ++s) {
    const bullion::ShardInfo& info = c.manifest.shard(s);
    bullion::ZoneMap zone = info.column_zone(0);
    if (zone.valid && (req.key < zone.min_i || req.key > zone.max_i)) continue;
    if (const std::string* bits = info.column_bloom(0)) {
      Span span(tracer, "serve.shard_bloom", id, root.index());
      BULLION_ASSIGN_OR_RETURN(
          auto view, bullion::BloomFilterView::Wrap(bullion::Slice(
                         reinterpret_cast<const uint8_t*>(bits->data()),
                         bits->size())));
      if (!view.MayContain(h)) continue;
    }
    const bullion::TableReader& reader = *readers[s];
    const bullion::FooterView& f = reader.footer();
    for (uint32_t g = 0; g < f.num_row_groups(); ++g) {
      bullion::ZoneMap cz = f.chunk_zone_map(g, 0);
      if (cz.valid && (req.key < cz.min_i || req.key > cz.max_i)) continue;
      {
        Span span(tracer, "serve.chunk_bloom", id, root.index());
        bullion::Slice bloom = f.chunk_bloom(g, 0);
        if (bloom.size() > 0) {
          BULLION_ASSIGN_OR_RETURN(auto view,
                                   bullion::BloomFilterView::Wrap(bloom));
          if (!view.MayContain(h)) continue;
        }
      }
      read_key_chunk = true;
      bullion::ReadPlan plan;
      {
        Span span(tracer, "io.plan", id, root.index());
        BULLION_ASSIGN_OR_RETURN(plan, reader.PlanProjection(g, {0}, ropts));
      }
      std::vector<ColumnVector> key_col(1);
      for (const bullion::CoalescedRead& read : plan.reads) {
        bullion::Buffer bytes;
        {
          Span span(tracer, "io.read", id, root.index());
          span.set_bytes(read.size());
          BULLION_RETURN_NOT_OK(
              reader.file()->Read(read.begin, read.size(), &bytes));
        }
        Span span(tracer, "format.decode_chunk", id, root.index());
        BULLION_RETURN_NOT_OK(reader.DecodeCoalescedRead(
            g, {0}, read, bytes.AsSlice(), ropts, &key_col));
      }
      const auto& uids = key_col[0].int_values();
      size_t row = uids.size();
      for (size_t r = 0; r < uids.size(); ++r) {
        if (uids[r] == req.key) {
          row = r;
          break;
        }
      }
      if (row == uids.size()) continue;
      o.rows += 1;
      o.uid = req.key;
      for (uint32_t c_idx : {1u, 2u}) {
        // Chunk-relative page holding `row`.
        auto [first, end] = f.chunk_pages(g, c_idx);
        uint32_t page = 0;
        size_t page_row = row;
        while (first + page < end &&
               page_row >= f.page_row_count(first + page)) {
          page_row -= f.page_row_count(first + page);
          ++page;
        }
        std::pair<uint64_t, uint64_t> extent;
        {
          Span span(tracer, "io.plan", id, root.index());
          BULLION_ASSIGN_OR_RETURN(
              extent, reader.PageRunExtent(g, c_idx, page, page + 1));
        }
        bullion::Buffer bytes;
        {
          Span span(tracer, "io.read", id, root.index());
          span.set_bytes(extent.second - extent.first);
          BULLION_RETURN_NOT_OK(reader.file()->Read(
              extent.first, extent.second - extent.first, &bytes));
        }
        ColumnVector col;
        {
          Span span(tracer, "format.decode_page_run", id, root.index());
          BULLION_RETURN_NOT_OK(reader.DecodePageRun(
              g, c_idx, page, page + 1, bytes.AsSlice(), ropts, &col));
        }
        if (c_idx == 1) o.score = col.real_values()[page_row];
        if (c_idx == 2) o.tag = col.bin_values()[page_row];
      }
    }
  }
  if (!req.hit) {
    rs->misses += 1;
    rs->misses_read += read_key_chunk ? 1 : 0;
  }
  return o;
}

}  // namespace

Status RunServeLookup(const Args& args, Report* report, Tracer* tracer) {
  const LookupConfig cfg = ConfigFor(args);
  const size_t threads = BenchThreads();
  FileDir dir(args.dir + "/serve");
  Corpus corpus;
  corpus.dir = &dir;

  // Set-up: write + open the dataset, then warm the cache and the read
  // path with closed-loop lookups from a differently seeded stream.
  BULLION_ASSIGN_OR_RETURN(
      double setup_s,
      MedianSetupSeconds(SetupReps(args), [&](size_t rep) -> Status {
        corpus.reader.reset();
        corpus.cache.reset();
        BULLION_RETURN_NOT_OK(RemoveTree(dir.path()));
        BULLION_RETURN_NOT_OK(MakeDir(dir.path()));
        BULLION_RETURN_NOT_OK(BuildCorpus(args, cfg, threads, &corpus));
        auto warm = MakeSchedule(cfg, cfg.warmup_lookups,
                                 args.seed * 977 + 100 + rep);
        LoopResult w = ServeLoop(corpus, warm, threads, false, nullptr, nullptr,
                                 nullptr);
        for (const Outcome& o : w.outcomes) {
          if (!o.ok) return Status::IOError("warm-up lookup failed");
        }
        return Status::OK();
      }));
  report->Metric("setup_s", setup_s, "s");

  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  const std::vector<Request> schedule = MakeSchedule(
      cfg, static_cast<size_t>(cfg.rate * seconds) + 1, args.seed);
  report->Note("offered_rate_per_s", std::to_string(cfg.rate));
  report->Note("client_threads", std::to_string(threads));

  bullion::IoStats stats;
  bullion::obs::PipelineReport pipe;
  const bullion::IoStatsSnapshot cache_before = corpus.cache_stats.Snapshot();
  if (args.trace) {
    bullion::obs::MetricsRegistry::Global().ResetAll();
    tracer->Clear();
    tracer->Enable(true);
  }
  LoopResult res = ServeLoop(corpus, schedule, threads, !args.closed_loop,
                             &stats, &pipe, tracer);
  tracer->Enable(false);
  for (size_t i = 0; i < schedule.size(); ++i) {
    report->Attempt(OutcomeCorrect(corpus, schedule[i], res.outcomes[i]),
                    "lookup " + std::to_string(i) + " of key " +
                        std::to_string(schedule[i].key));
  }
  CheckExactness(corpus, schedule, cfg.exactness_samples, args.seed + 5,
                 report);
  const double n = static_cast<double>(schedule.size());

  if (!args.trace) {
    // p99 is the median of the p99s of 0.5 s windows (~8k lookups
    // each): a transient stall of the shared machine moves one window.
    const double p50 = res.latency_us.All().Median();
    const double p99 = res.latency_us.WindowedQuantile(500000000, 0.99);
    report->Metric("p50_ms", p50 / 1e3, "ms");
    report->Metric("tail_ms", p99 / 1e3, "ms");
    report->Metric("tail_percentile", 99, "pct");
    report->Metric("lookup_p50_us", p50, "us");
    report->Metric("lookup_p99_us", p99, "us");
    report->Metric("lookup_samples", n, "count");
    report->Metric("mb_s",
                   static_cast<double>(res.returned_bytes) / 1e6 /
                       (res.service_us.Sum() / 1e6),
                   "MB/s");
    report->Metric("bytes_ratio",
                   static_cast<double>(pipe.bytes.load()) /
                       std::max<double>(1, res.returned_bytes),
                   "ratio");
    report->Metric("lookups_per_s", n / res.wall_s, "1/s");
    report->Metric("service_us_p50", res.service_us.Median(), "us");
    report->Metric("gen_late_us_p99", res.late_us.Quantile(0.99), "us");
    report->Metric("lookup_p99_us_whole_run",
                   res.latency_us.All().Quantile(0.99), "us");
    if (!res.latency_us.All().Supports(0.99)) {
      report->Note("warning", "fewer than ten lookups beyond p99");
    }
    ReportCommon(report);
    return Status::OK();
  }

  // Traced run, part 1: the open loop above, one span per Run().
  Samples svc = tracer->DurationsUs("serve.lookup");
  report->Metric("serve.service_us_p50", svc.Median(), "us");
  report->Metric("serve.service_us_p99", svc.Quantile(0.99), "us");
  report->Metric("serve.reads_per_lookup",
                 RegistryHist("bullion.aio.complete_ns").count / n, "count");
  report->Metric("serve.bytes_per_lookup", pipe.bytes.load() / n, "B");
  const double probes =
      static_cast<double>(RegistryCounter("bullion.bloom.probes"));
  const double negatives =
      static_cast<double>(RegistryCounter("bullion.bloom.negatives"));
  report->Metric("serve.bloom_negative_rate",
                 probes > 0 ? negatives / probes : 0, "ratio");
  report->Metric("exec.groups_pruned_per_lookup", stats.groups_pruned / n,
                 "count");
  report->Metric("dataset.shards_pruned_per_lookup", stats.shards_pruned / n,
                 "count");
  const bullion::IoStatsSnapshot cache_d =
      bullion::IoStatsDelta(cache_before, corpus.cache_stats.Snapshot());
  report->Metric("dataset.cache_hit_rate",
                 static_cast<double>(cache_d.cache_hits) /
                     std::max<double>(1, cache_d.cache_hits +
                                             cache_d.cache_misses),
                 "ratio");
  report->Metric("dataset.cache_evictions", cache_d.cache_evictions / n,
                 "count");
  report->Metric("dataset.cache_insert_us_p99",
                 RegistryHist("bullion.cache.insert_ns").p99 / 1e3, "us");
  report->Metric("io.aio_submit_us_p50",
                 RegistryHist("bullion.aio.submit_ns").p50 / 1e3, "us");
  report->Metric("io.aio_complete_us_p50",
                 RegistryHist("bullion.aio.complete_ns").p50 / 1e3, "us");
  report->Metric("bench.gen_late_us_p99", res.late_us.Quantile(0.99), "us");
  const double front_service_s = svc.Sum() / 1e6 / n;

  // Part 2: closed-loop replay through the layer calls, untraced then
  // traced, on the first requests of the schedule.
  std::vector<std::unique_ptr<bullion::TableReader>> readers;
  for (const bullion::ShardInfo& info : corpus.manifest.shards()) {
    BULLION_ASSIGN_OR_RETURN(auto file, dir.OpenRead(info.name));
    BULLION_ASSIGN_OR_RETURN(auto reader,
                             bullion::TableReader::Open(std::move(file)));
    readers.push_back(std::move(reader));
  }
  const size_t m = std::min(cfg.replay_lookups, schedule.size());
  // Pass 0 warms the replay path; pass 1 runs untraced, pass 2 traced.
  double wall[3] = {0, 0, 0};
  ReplayStats rs;
  for (int pass = 0; pass < 3; ++pass) {
    const bool traced = pass == 2;
    tracer->Clear();
    tracer->Enable(traced);
    rs = ReplayStats{};
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < m; ++i) {
      auto o = ReplayLookup(corpus, readers, schedule[i], i, tracer, &rs);
      report->Attempt(o.ok() && OutcomeCorrect(corpus, schedule[i], *o),
                      "replayed lookup of " + std::to_string(schedule[i].key));
    }
    wall[pass] = static_cast<double>(NowNs() - t0) / 1e9;
    tracer->Enable(false);
  }
  const double md = static_cast<double>(m);
  report->Metric("bench.trace_overhead_frac", (wall[2] - wall[1]) / wall[1],
                 "ratio");
  report->Metric("serve.bloom_fpr",
                 rs.misses > 0 ? static_cast<double>(rs.misses_read) /
                                     static_cast<double>(rs.misses)
                     : 0,
                 "ratio");
  report->Metric("io.plan_us", tracer->DurationsUs("io.plan").Median(), "us");
  Samples reads = tracer->DurationsUs("io.read");
  report->Metric("io.reads", reads.size() / md, "count");
  report->Metric("io.read_bytes", tracer->Bytes("io.read") / md, "B");
  report->Metric("io.read_us_p50", reads.Median(), "us");
  report->Metric("io.read_us_p99", reads.Quantile(0.99), "us");
  Samples decode = tracer->DurationsUs("format.decode_chunk");
  report->Metric("format.decode_chunk_us_p50", decode.Median(), "us");
  report->Metric("format.decode_chunk_us_p99", decode.Quantile(0.99), "us");
  report->Metric("format.decode_page_run_us_p50",
                 tracer->DurationsUs("format.decode_page_run").Median(), "us");
  report->Metric("core.lookup_layer_frac",
                 tracer->LayerThreadSeconds({"io", "format", "encoding"}) / md /
                     front_service_s,
                 "ratio");
  ReportLayerSelfTimes(*tracer, m, report);
  BULLION_RETURN_NOT_OK(tracer->WriteChromeTrace(args.trace_file));
  BULLION_RETURN_NOT_OK(ProfileCodecs(&dir, corpus.manifest, {}, report));
  FillIdleLayers(report);
  ReportCommon(report);
  return Status::OK();
}

}  // namespace perfbench
