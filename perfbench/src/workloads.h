// The four workloads and the helpers they share.
//
// Every workload follows one shape:
//   1. set up several times (the last set-up is kept) and report the
//      median as setup_s;
//   2. untraced run (--trace 0): drive the public front door for
//      --seconds and report the end-to-end metrics;
//   3. traced run (--trace 1): replay the same operations through the
//      layer calls with spans around each call, and report the
//      per-layer metrics;
//   4. check every output outside the timed windows; a non-OK Status
//      or a wrong output counts as a failed operation.
//
// End-to-end metrics every workload reports (BENCHMARK.json
// "end_to_end"). One name, one meaning per workload:
//
//   setup_s      median set-up time (corpus generation, any corpus
//                write, open, warm-up), all workloads
//   peak_rss_mb  process peak RSS (getrusage), all workloads
//   mb_s         ingest: ingest_mb_s, logical input MB per second
//                  from first Append to the published manifest
//                train_scan: scan_mb_s, logical projected MB per
//                  epoch second
//                serve_lookup: logical MB returned per second of
//                  Run() time
//                comply_delete: logical MB erased per second of
//                  request time
//   p50_ms       ingest: median Append wait per row group
//                train_scan: scan_first_batch_ms (open -> first batch)
//                serve_lookup: lookup_p50_us / 1000, from due time
//                comply_delete: delete_p50_ms per request (median of
//                  1 s window medians)
//   tail_ms      the highest percentile with at least ten samples
//                beyond it, fixed per workload: p90 for ingest and
//                train_scan, p99 for serve_lookup (median of 0.5 s
//                window p99s) and comply_delete (of 1 s windows)
//   bytes_ratio  ingest: ingest_stored_ratio, bytes on disk per
//                  logical byte
//                train_scan, serve_lookup: bytes fetched per logical
//                  byte delivered
//                comply_delete: delete_write_amp, bytes written per
//                  logical byte erased
//
// Each workload also prints its metrics under the workload-specific
// names above (ingest_mb_s, lookup_p99_us, ...), the sample count
// behind every percentile, and failed_frac.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dataset/shard_manifest.h"
#include "dataset/sharded_reader.h"
#include "dataset/sharded_writer.h"
#include "format/schema.h"
#include "harness.h"

namespace perfbench {

Status RunIngest(const Args& args, Report* report, Tracer* tracer);
Status RunTrainScan(const Args& args, Report* report, Tracer* tracer);
Status RunServeLookup(const Args& args, Report* report, Tracer* tracer);
Status RunComplyDelete(const Args& args, Report* report, Tracer* tracer);

/// Every per-layer metric name and unit (BENCHMARK.json "per_layer").
/// The traced run reports all of them; a layer a workload leaves idle
/// reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Codecs whose page counts and decode speed the traced run reports
/// (encoding.pages_by_codec.<codec>, encoding.decode_gbs.<codec>).
const std::vector<std::string>& ProfiledCodecs();

/// Times `fn` `reps` times and returns the median seconds; the caller
/// keeps whatever the last call built.
template <typename Fn>
Result<double> MedianSetupSeconds(size_t reps, Fn&& fn) {
  Samples s;
  for (size_t i = 0; i < reps; ++i) {
    uint64_t t0 = NowNs();
    BULLION_RETURN_NOT_OK(fn(i));
    s.Add(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return s.Median();
}

/// Set-up repetitions per run (one in tiny mode).
inline size_t SetupReps(const Args& args) { return args.tiny ? 1 : 3; }

/// Writes `batches` as a sharded dataset into `dir` through the
/// ShardedWriteBuilder front door and publishes `<base>.manifest`.
Result<bullion::ShardManifest> WriteDataset(
    FileDir* dir, const bullion::Schema& schema,
    const std::vector<std::vector<ColumnVector>>& batches,
    const std::string& base, uint64_t rows_per_shard, uint32_t rows_per_group,
    const bullion::WriterOptions& options, size_t threads);

/// Serializes and writes the manifest as `<base>.manifest`.
Status PublishManifest(FileDir* dir, const bullion::ShardManifest& manifest,
                       const std::string& base);

/// Opens a sharded dataset from its manifest.
Result<std::unique_ptr<bullion::ShardedTableReader>> OpenDataset(
    FileDir* dir, const bullion::ShardManifest& manifest);

/// Bytes on disk of every shard plus the manifest.
Result<uint64_t> DatasetBytes(FileDir* dir,
                              const bullion::ShardManifest& manifest,
                              const std::string& base);

/// Per-codec page counts (from the footers' page encodings) and decode
/// speed (DecodePage over every page of that codec among `columns`, or
/// every column when empty) of a dataset; reports
/// encoding.pages_by_codec.* and encoding.decode_gbs.*.
Status ProfileCodecs(FileDir* dir, const bullion::ShardManifest& manifest,
                     const std::vector<uint32_t>& columns, Report* report);

/// Per-layer self time per root operation (`<layer>.self_ms_per_op`).
void ReportLayerSelfTimes(const Tracer& tracer, size_t ops, Report* report);

/// Zero-fills every per-layer metric not reported yet (idle layers).
void FillIdleLayers(Report* report);

/// The common tail of every workload: peak RSS and failed_frac.
void ReportCommon(Report* report);

}  // namespace perfbench
