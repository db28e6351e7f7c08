// Shared plumbing of the Bullion benchmark: command-line arguments,
// sample statistics, the metric report, the span tracer, and the file
// helpers every workload uses.
//
// The benchmark drives Bullion only through its public headers. All
// data lives in real files under the run directory (--dir), so reads
// take the same fd / io_uring path users run; they are served from the
// OS page cache, so latencies are the sandbox's, not a device's.
//
// Flush policy (every workload, both sides of a comparison): the
// library's Finish()/DeleteRows() call Flush() as they always do, but
// CountingWritableFile turns Flush() into a counted no-op instead of an
// fsync. Durability is not measured; page-cache writes are.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "format/column_vector.h"
#include "io/file.h"
#include "io/io_stats.h"
#include "obs/metrics.h"

namespace perfbench {

using bullion::ColumnVector;
using bullion::IoStats;
using bullion::Result;
using bullion::Status;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny corpora and a short run: every code path once, in seconds.
  bool tiny = false;
  /// serve_lookup only: requests back to back instead of on the open
  /// loop's schedule, to re-measure capacity (calibration aid).
  bool closed_loop = false;
  /// Run directory: every file the run creates lives under it.
  std::string dir;
  /// Where the traced run writes its Chrome-trace span file.
  std::string trace_file;
  std::string commit = "unknown";
  std::string dirty = "unknown";
};

/// Benchmark threads: min(nproc, 4).
size_t BenchThreads();

inline uint64_t NowNs() { return bullion::obs::NowNs(); }
inline double NsToMs(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToUs(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// A bag of measurements with exact (nearest-rank) quantiles.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  double Mean() const { return empty() ? 0 : Sum() / size(); }
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  /// The quantile is supported when at least ten samples lie beyond it.
  bool Supports(double q) const;

 private:
  std::vector<double> values_;
};

/// Measurements stamped with when they were taken, for per-window
/// quantiles: a transient stall of the shared machine then moves one
/// window's figure instead of the whole run's.
class TimedSamples {
 public:
  void Add(uint64_t t_ns, double v) { points_.push_back({t_ns, v}); }
  Samples All() const;
  /// Median over consecutive `window_ns` windows of the `q` quantile
  /// within each window. Windows with fewer than ten samples beyond
  /// `q` are skipped; falls back to the whole run's quantile when no
  /// window qualifies.
  double WindowedQuantile(uint64_t window_ns, double q) const;

 private:
  std::vector<std::pair<uint64_t, double>> points_;
};

/// Everything the run prints. Each metric prints one line,
/// `name value unit`; the last line of standard output is one JSON
/// object with every metric recorded. The runner (run.py) keeps the
/// ones BENCHMARK.json names for the mode.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Provenance and context lines: `# key value`.
  void Note(const std::string& key, const std::string& value);
  /// Counts an attempted operation; `ok == false` also counts it failed.
  void Attempt(bool ok, const std::string& what = "");
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool has(const std::string& name) const { return metrics_.count(name) > 0; }
  std::string Json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// In-memory span recorder for the traced run. A span records its
/// name, the request/unit id it belongs to, its parent span, its
/// thread, and start/end. The layer of a span is its name up to the
/// first '.', so "format.decode_chunk" belongs to `format`. Disabled
/// tracers record nothing and cost one branch per span.
class Tracer {
 public:
  struct SpanRecord {
    const char* name = nullptr;  // string literal
    uint64_t id = 0;
    size_t parent = 0;  // 1-based span index, 0 = root
    uint32_t tid = 0;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t bytes = 0;  // payload the span moved, when meaningful
  };

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  /// Opens a span; returns its 1-based index (0 when disabled).
  size_t Begin(const char* name, uint64_t id, size_t parent);
  void End(size_t span, uint64_t bytes = 0);
  void Clear();
  std::vector<SpanRecord> spans() const;

  /// Per-layer self time (span minus the union of its children), ms.
  std::map<std::string, double> LayerSelfMs() const;
  /// Durations (us) of every span called `name`.
  Samples DurationsUs(const std::string& name) const;
  /// Sum of durations (s) of every span called `name`.
  double BusySeconds(const std::string& name) const;
  /// Thread-seconds covered by spans of `layers` (union per thread, so
  /// nested spans of these layers are not double counted).
  double LayerThreadSeconds(const std::vector<std::string>& layers) const;
  uint64_t Bytes(const std::string& name) const;
  /// Chrome trace-event JSON (same event shape as src/obs/trace).
  Status WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable bullion::Mutex mu_;
  std::vector<SpanRecord> spans_ GUARDED_BY(mu_);
  uint64_t epoch_ns_ GUARDED_BY(mu_) = 0;
};

/// RAII span. `tracer` may be null or disabled.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t id, size_t parent = 0)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        index_(tracer_ != nullptr ? tracer_->Begin(name, id, parent) : 0) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->End(index_, bytes_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  size_t index() const { return index_; }
  void set_bytes(uint64_t b) { bytes_ = b; }

 private:
  Tracer* tracer_;
  size_t index_;
  uint64_t bytes_ = 0;
};

/// A POSIX writable file that counts every physical write into an
/// IoStats (write_calls / bytes_written / flush_calls) and skips fsync
/// on Flush() — see the flush policy at the top of this file.
class CountingWritableFile : public bullion::WritableFile {
 public:
  CountingWritableFile(std::unique_ptr<bullion::WritableFile> base,
                       IoStats* stats)
      : base_(std::move(base)), stats_(stats) {}
  Status Append(bullion::Slice data) override;
  Status AppendBlock(bullion::Slice data) override;
  Status WriteAt(uint64_t offset, bullion::Slice data) override;
  Status Flush() override;
  Result<uint64_t> Size() const override { return base_->Size(); }
  IoStats* stats() const override { return stats_; }

 private:
  void Count(size_t bytes);
  std::unique_ptr<bullion::WritableFile> base_;
  IoStats* stats_;
};

/// Real files under one directory, with write accounting.
class FileDir {
 public:
  explicit FileDir(std::string path) : path_(std::move(path)) {}
  const std::string& path() const { return path_; }
  std::string PathOf(const std::string& name) const {
    return path_ + "/" + name;
  }
  Result<std::unique_ptr<bullion::WritableFile>> Create(
      const std::string& name);
  Result<std::unique_ptr<bullion::WritableFile>> OpenForUpdate(
      const std::string& name);
  Result<std::unique_ptr<bullion::RandomAccessFile>> OpenRead(
      const std::string& name) const;
  Status Remove(const std::string& name);
  Status WriteWhole(const std::string& name, const std::vector<uint8_t>& bytes);
  Result<uint64_t> FileSize(const std::string& name) const;
  IoStats& stats() { return stats_; }

 private:
  std::string path_;
  IoStats stats_;
};

Status MakeDir(const std::string& path);
Status RemoveTree(const std::string& path);

/// Filesystem type of `path` ("ext4", "tmpfs", "overlay", ...).
std::string FsType(const std::string& path);
/// Process peak resident set size, MB (getrusage ru_maxrss).
double PeakRssMb();

/// Logical bytes of a batch: ApproxColumnVectorBytes summed.
uint64_t LogicalBytes(const std::vector<ColumnVector>& columns);
/// Order-sensitive content checksum of a column (values, offsets,
/// validity), for equality checks across read paths.
uint64_t ColumnChecksum(const ColumnVector& column, uint64_t seed);

/// Process-wide registry reads (obs/metrics.h). Traced phases call
/// MetricsRegistry::Global().ResetAll() at their start, so these read
/// the phase alone.
bullion::obs::HistogramSnapshot RegistryHist(const std::string& name);
uint64_t RegistryCounter(const std::string& name);

}  // namespace perfbench
