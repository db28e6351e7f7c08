#include "workloads.h"

#include <algorithm>
#include <cctype>
#include <map>

#include "encoding/encoding.h"
#include "format/page.h"
#include "format/reader.h"

namespace perfbench {

using bullion::ShardManifest;

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  // Counts (reads, bytes, calls) are per root operation of the traced
  // replay: a row group (ingest), an epoch (train_scan), a lookup
  // (serve_lookup), a forget-user request (comply_delete). Each line
  // names the end-to-end metric the layer metric should move and the
  // workload where the layer does the work.
  static const std::vector<std::pair<std::string, std::string>> kMetrics = [] {
    std::vector<std::pair<std::string, std::string>> m;
    // encoding -> bytes_ratio (ingest_stored_ratio) @ingest,
    //             mb_s (scan_mb_s) @train_scan
    for (const std::string& c : ProfiledCodecs()) {
      m.push_back({"encoding.pages_by_codec." + c, "count"});
      m.push_back({"encoding.decode_gbs." + c, "GB/s"});
    }
    m.insert(m.end(), {
        {"encoding.self_ms_per_op", "ms"},
        // format write side -> mb_s (ingest_mb_s) @ingest,
        //                      setup_s @train_scan
        {"format.stage_ms", "ms"},
        {"format.encode_page_us_p50", "us"},
        {"format.encode_page_us_p99", "us"},
        {"format.encode_busy_s", "s"},
        {"format.commit_ms", "ms"},
        // format read side -> p50_ms (scan_first_batch_ms) and mb_s
        //                     @train_scan; p50_ms @serve_lookup
        {"format.open_footer_us", "us"},
        {"format.decode_chunk_us_p50", "us"},
        {"format.decode_chunk_us_p99", "us"},
        {"format.decode_busy_s", "s"},
        {"format.decode_page_run_us_p50", "us"},
        // format deletion -> p50_ms, bytes_ratio @comply_delete
        {"format.delete_us_p50", "us"},
        {"format.delete_pages_rewritten", "count"},
        {"format.delete_bytes_written", "B"},
        {"format.self_ms_per_op", "ms"},
        // io -> p50_ms @train_scan and @serve_lookup (plan, aio),
        //       mb_s @train_scan (reads), mb_s @ingest (writes)
        {"io.plan_us", "us"},
        {"io.reads", "count"},
        {"io.read_bytes", "B"},
        {"io.read_us_p50", "us"},
        {"io.read_us_p99", "us"},
        {"io.aio_submit_us_p50", "us"},
        {"io.aio_complete_us_p50", "us"},
        {"io.write_calls", "count"},
        {"io.write_bytes", "B"},
        {"io.write_us_p99", "us"},
        {"io.self_ms_per_op", "ms"},
        // exec -> mb_s @ingest (write), mb_s @train_scan (scan),
        //         p50_ms @serve_lookup (pruning)
        {"exec.write_stall_ms", "ms"},
        {"exec.write_parallel_eff", "ratio"},
        {"exec.scan_stall_ms", "ms"},
        {"exec.scan_parallel_eff", "ratio"},
        {"exec.queue_wait_us_p99", "us"},
        {"exec.groups_pruned_per_lookup", "count"},
        {"exec.self_ms_per_op", "ms"},
        // dataset -> p50_ms @train_scan (open), mb_s @train_scan and
        //            tail_ms @serve_lookup (cache), p50_ms @serve_lookup
        //            (shard pruning), tail_ms and bytes_ratio
        //            @comply_delete (compaction)
        {"dataset.open_us", "us"},
        {"dataset.cache_hit_rate", "ratio"},
        {"dataset.cache_evictions", "count"},
        {"dataset.cache_insert_us_p99", "us"},
        {"dataset.shards_pruned_per_lookup", "count"},
        {"dataset.compact_ms", "ms"},
        {"dataset.compact_bytes_written", "B"},
        {"dataset.self_ms_per_op", "ms"},
        // serve -> p50_ms / tail_ms @serve_lookup
        {"serve.service_us_p50", "us"},
        {"serve.service_us_p99", "us"},
        {"serve.reads_per_lookup", "count"},
        {"serve.bytes_per_lookup", "B"},
        {"serve.bloom_negative_rate", "ratio"},
        {"serve.bloom_fpr", "ratio"},
        {"serve.self_ms_per_op", "ms"},
        // core -> mb_s @train_scan, p50_ms @serve_lookup
        {"core.scan_layer_frac", "ratio"},
        {"core.lookup_layer_frac", "ratio"},
        {"core.self_ms_per_op", "ms"},
        // bench: generator lateness (lookup latencies are invalid when
        // it is large), tracing overhead, and the replay's own time
        {"bench.gen_late_us_p99", "us"},
        {"bench.trace_overhead_frac", "ratio"},
        {"bench.self_ms_per_op", "ms"},
    });
    return m;
  }();
  return kMetrics;
}

namespace {

std::string CodecName(uint8_t tag) {
  std::string name(bullion::EncodingTypeName(
      static_cast<bullion::EncodingType>(tag)));
  for (char& ch : name) ch = static_cast<char>(std::tolower(ch));
  return name;
}

}  // namespace

const std::vector<std::string>& ProfiledCodecs() {
  // The page codecs the four workloads' datasets use at this commit,
  // plus the common ones they could move to; pages of any other codec
  // print an `unprofiled_codec` line.
  static const std::vector<std::string> kCodecs = {
      "trivial", "rle",     "dictionary", "fixedbitwidth", "varint",
      "delta",   "for-delta", "bitshuffle", "gorilla",     "chimp",
      "alp",     "chunked", "stringdict", "fsst",          "sparsedelta"};
  return kCodecs;
}

Result<ShardManifest> WriteDataset(
    FileDir* dir, const bullion::Schema& schema,
    const std::vector<std::vector<ColumnVector>>& batches,
    const std::string& base, uint64_t rows_per_shard, uint32_t rows_per_group,
    const bullion::WriterOptions& options, size_t threads) {
  BULLION_ASSIGN_OR_RETURN(
      auto writer,
      bullion::ShardedWriteBuilder(
          schema, [dir](const std::string& name) { return dir->Create(name); })
          .BaseName(base)
          .RowsPerShard(rows_per_shard)
          .RowsPerGroup(rows_per_group)
          .Options(options)
          .Threads(threads)
          .Build());
  for (const auto& batch : batches) {
    BULLION_RETURN_NOT_OK(writer->Append(batch));
  }
  BULLION_ASSIGN_OR_RETURN(ShardManifest manifest, writer->Finish());
  BULLION_RETURN_NOT_OK(PublishManifest(dir, manifest, base));
  return manifest;
}

Status PublishManifest(FileDir* dir, const ShardManifest& manifest,
                       const std::string& base) {
  bullion::Buffer blob = manifest.Serialize();
  return dir->WriteWhole(base + ".manifest",
                         std::vector<uint8_t>(blob.data(),
                                              blob.data() + blob.size()));
}

Result<std::unique_ptr<bullion::ShardedTableReader>> OpenDataset(
    FileDir* dir, const ShardManifest& manifest) {
  return bullion::ShardedTableReader::Open(
      manifest, [dir](const std::string& name) { return dir->OpenRead(name); });
}

Result<uint64_t> DatasetBytes(FileDir* dir, const ShardManifest& manifest,
                              const std::string& base) {
  BULLION_ASSIGN_OR_RETURN(uint64_t total, dir->FileSize(base + ".manifest"));
  for (const bullion::ShardInfo& s : manifest.shards()) {
    BULLION_ASSIGN_OR_RETURN(uint64_t n, dir->FileSize(s.name));
    total += n;
  }
  return total;
}

Status ProfileCodecs(FileDir* dir, const ShardManifest& manifest,
                     const std::vector<uint32_t>& columns, Report* report) {
  std::map<std::string, uint64_t> pages;
  std::map<std::string, uint64_t> decoded_bytes;
  std::map<std::string, uint64_t> decode_ns;
  for (const bullion::ShardInfo& info : manifest.shards()) {
    BULLION_ASSIGN_OR_RETURN(auto file, dir->OpenRead(info.name));
    BULLION_ASSIGN_OR_RETURN(auto reader,
                             bullion::TableReader::Open(std::move(file)));
    const bullion::FooterView& f = reader->footer();
    std::vector<uint32_t> cols = columns;
    if (cols.empty()) {
      for (uint32_t c = 0; c < f.num_columns(); ++c) cols.push_back(c);
    }
    for (uint32_t g = 0; g < f.num_row_groups(); ++g) {
      for (uint32_t c : cols) {
        auto [first, end] = f.chunk_pages(g, c);
        if (end <= first) continue;
        uint64_t begin = f.page_offset(first);
        uint64_t stop = f.page_offset(end - 1) + f.page_slot_size(end - 1);
        bullion::Buffer bytes;
        BULLION_RETURN_NOT_OK(
            reader->file()->Read(begin, stop - begin, &bytes));
        bullion::ColumnRecord rec = f.column_record(c);
        for (uint32_t p = first; p < end; ++p) {
          std::string codec = CodecName(f.page_encoding(p));
          bullion::Slice page =
              bytes.SubSlice(f.page_offset(p) - begin, f.page_slot_size(p));
          ColumnVector out(static_cast<bullion::PhysicalType>(rec.physical),
                           rec.list_depth);
          uint64_t t0 = NowNs();
          BULLION_RETURN_NOT_OK(bullion::DecodePage(page, &out));
          decode_ns[codec] += NowNs() - t0;
          decoded_bytes[codec] += bullion::ApproxColumnVectorBytes(out);
          pages[codec] += 1;
        }
      }
    }
  }
  for (const std::string& codec : ProfiledCodecs()) {
    report->Metric("encoding.pages_by_codec." + codec,
                   static_cast<double>(pages[codec]), "count");
    double ns = static_cast<double>(decode_ns[codec]);
    report->Metric("encoding.decode_gbs." + codec,
                   ns > 0 ? static_cast<double>(decoded_bytes[codec]) / ns : 0,
                   "GB/s");
  }
  for (const auto& [codec, n] : pages) {
    if (std::find(ProfiledCodecs().begin(), ProfiledCodecs().end(), codec) ==
        ProfiledCodecs().end()) {
      report->Note("unprofiled_codec", codec + " " + std::to_string(n));
    }
  }
  return Status::OK();
}

void ReportLayerSelfTimes(const Tracer& tracer, size_t ops, Report* report) {
  std::map<std::string, double> self = tracer.LayerSelfMs();
  double denom = ops == 0 ? 1.0 : static_cast<double>(ops);
  for (const char* layer : {"encoding", "format", "io", "exec", "dataset",
                            "serve", "core", "bench"}) {
    report->Metric(std::string(layer) + ".self_ms_per_op", self[layer] / denom,
                   "ms");
  }
}

void FillIdleLayers(Report* report) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    if (!report->has(name)) report->Metric(name, 0, unit);
  }
}

void ReportCommon(Report* report) {
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  double attempted = static_cast<double>(report->attempted());
  report->Metric("failed_frac",
                 attempted > 0 ? report->failed() / attempted : 1.0, "ratio");
}

}  // namespace perfbench
