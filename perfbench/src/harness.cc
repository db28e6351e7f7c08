#include "harness.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "dataset/chunk_cache.h"
#include "common/hash.h"

namespace perfbench {

size_t BenchThreads() {
  size_t n = std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  return std::min<size_t>(n, 4);
}

// ------------------------------------------------------------- Samples

double Samples::Sum() const {
  double s = 0;
  for (double v : values_) s += v;
  return s;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  // Nearest rank: the smallest value with at least q of the samples at
  // or below it.
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  if (rank < 1) rank = 1;
  return sorted[std::min(rank, sorted.size()) - 1];
}

bool Samples::Supports(double q) const {
  return static_cast<double>(values_.size()) * (1.0 - q) >= 10.0;
}

Samples TimedSamples::All() const {
  Samples s;
  for (const auto& p : points_) s.Add(p.second);
  return s;
}

double TimedSamples::WindowedQuantile(uint64_t window_ns, double q) const {
  std::map<uint64_t, Samples> windows;
  for (const auto& [t, v] : points_) windows[t / window_ns].Add(v);
  Samples per_window;
  for (const auto& [w, s] : windows) {
    if (s.Supports(q)) per_window.Add(s.Quantile(q));
  }
  return per_window.empty() ? All().Quantile(q) : per_window.Median();
}

// -------------------------------------------------------------- Report

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
  std::printf("%s %.10g %s\n", name.c_str(), value, unit.c_str());
}

void Report::Note(const std::string& key, const std::string& value) {
  std::printf("# %s %s\n", key.c_str(), value.c_str());
}

void Report::Attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    // Only the first few failures are worth a line each.
    if (failed_ <= 5) {
      std::fprintf(stderr, "perfbench: failed: %s\n", what.c_str());
    }
  }
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : metrics_) {
    if (!first) out += ", ";
    first = false;
    double v = std::isfinite(m.first) ? m.first : 0.0;
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.second + "\"}";
  }
  out += "}}";
  return out;
}

// -------------------------------------------------------------- Tracer

namespace {

uint32_t ThreadTag() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t tag = next.fetch_add(1);
  return tag;
}

std::string LayerOf(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot - name);
}

/// Length of the union of [start, end) intervals.
uint64_t UnionLength(std::vector<std::pair<uint64_t, uint64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  uint64_t total = 0;
  uint64_t cur_s = 0;
  uint64_t cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (!open || s > cur_e) {
      if (open) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (open) total += cur_e - cur_s;
  return total;
}

}  // namespace

size_t Tracer::Begin(const char* name, uint64_t id, size_t parent) {
  SpanRecord rec;
  rec.name = name;
  rec.id = id;
  rec.parent = parent;
  rec.tid = ThreadTag();
  bullion::MutexLock lock(&mu_);
  rec.start_ns = NowNs();
  if (spans_.empty()) epoch_ns_ = rec.start_ns;
  spans_.push_back(rec);
  return spans_.size();
}

void Tracer::End(size_t span, uint64_t bytes) {
  if (span == 0) return;
  uint64_t now = NowNs();
  bullion::MutexLock lock(&mu_);
  spans_[span - 1].end_ns = now;
  spans_[span - 1].bytes = bytes;
}

void Tracer::Clear() {
  bullion::MutexLock lock(&mu_);
  spans_.clear();
}

std::vector<Tracer::SpanRecord> Tracer::spans() const {
  bullion::MutexLock lock(&mu_);
  return spans_;
}

std::map<std::string, double> Tracer::LayerSelfMs() const {
  std::vector<SpanRecord> all = spans();
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(all.size());
  for (const SpanRecord& s : all) {
    if (s.parent == 0) continue;
    const SpanRecord& p = all[s.parent - 1];
    // Clip to the parent: a child that outlives its parent (a worker
    // finishing after the submitter's span closed) only covers the
    // overlap.
    uint64_t b = std::max(s.start_ns, p.start_ns);
    uint64_t e = std::min(s.end_ns, p.end_ns);
    if (e > b) children[s.parent - 1].push_back({b, e});
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < all.size(); ++i) {
    uint64_t dur = all[i].end_ns - all[i].start_ns;
    uint64_t covered = UnionLength(children[i]);
    self[LayerOf(all[i].name)] +=
        NsToMs(dur > covered ? dur - covered : 0);
  }
  return self;
}

Samples Tracer::DurationsUs(const std::string& name) const {
  Samples out;
  for (const SpanRecord& s : spans()) {
    if (name == s.name) out.Add(NsToUs(s.end_ns - s.start_ns));
  }
  return out;
}

double Tracer::BusySeconds(const std::string& name) const {
  return DurationsUs(name).Sum() / 1e6;
}

double Tracer::LayerThreadSeconds(
    const std::vector<std::string>& layers) const {
  std::map<uint32_t, std::vector<std::pair<uint64_t, uint64_t>>> per_thread;
  for (const SpanRecord& s : spans()) {
    std::string layer = LayerOf(s.name);
    if (std::find(layers.begin(), layers.end(), layer) == layers.end()) {
      continue;
    }
    per_thread[s.tid].push_back({s.start_ns, s.end_ns});
  }
  uint64_t total = 0;
  for (auto& [tid, iv] : per_thread) total += UnionLength(std::move(iv));
  return static_cast<double>(total) / 1e9;
}

uint64_t Tracer::Bytes(const std::string& name) const {
  uint64_t n = 0;
  for (const SpanRecord& s : spans()) n += name == s.name ? s.bytes : 0;
  return n;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::vector<SpanRecord> all = spans();
  uint64_t epoch_ns = 0;
  {
    bullion::MutexLock lock(&mu_);
    epoch_ns = epoch_ns_;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write trace " + path);
  std::fputs("[", f);
  for (size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"span\": %zu, \"id\": %llu, \"parent\": %zu}}",
                 i == 0 ? "" : ",", s.name, LayerOf(s.name).c_str(),
                 static_cast<double>(s.start_ns - epoch_ns) / 1000.0,
                 static_cast<double>(s.end_ns - s.start_ns) / 1000.0, s.tid,
                 i + 1, static_cast<unsigned long long>(s.id), s.parent);
  }
  std::fputs("\n]\n", f);
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::IOError("cannot close trace " + path);
}

// ------------------------------------------------------------- files

void CountingWritableFile::Count(size_t bytes) {
  stats_->write_calls += 1;
  stats_->bytes_written += bytes;
}

Status CountingWritableFile::Append(bullion::Slice data) {
  Count(data.size());
  return base_->Append(data);
}

Status CountingWritableFile::AppendBlock(bullion::Slice data) {
  Count(data.size());
  return base_->AppendBlock(data);
}

Status CountingWritableFile::WriteAt(uint64_t offset, bullion::Slice data) {
  Count(data.size());
  return base_->WriteAt(offset, data);
}

Status CountingWritableFile::Flush() {
  stats_->flush_calls += 1;
  return Status::OK();
}

Result<std::unique_ptr<bullion::WritableFile>> FileDir::Create(
    const std::string& name) {
  BULLION_ASSIGN_OR_RETURN(auto base,
                           bullion::OpenPosixWritableFile(PathOf(name), true));
  return std::unique_ptr<bullion::WritableFile>(
      new CountingWritableFile(std::move(base), &stats_));
}

Result<std::unique_ptr<bullion::WritableFile>> FileDir::OpenForUpdate(
    const std::string& name) {
  BULLION_ASSIGN_OR_RETURN(auto base,
                           bullion::OpenPosixWritableFile(PathOf(name), false));
  return std::unique_ptr<bullion::WritableFile>(
      new CountingWritableFile(std::move(base), &stats_));
}

Result<std::unique_ptr<bullion::RandomAccessFile>> FileDir::OpenRead(
    const std::string& name) const {
  return bullion::OpenPosixReadableFile(PathOf(name));
}

Status FileDir::Remove(const std::string& name) {
  if (::unlink(PathOf(name).c_str()) != 0) {
    return Status::IOError("unlink " + name + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status FileDir::WriteWhole(const std::string& name,
                           const std::vector<uint8_t>& bytes) {
  BULLION_ASSIGN_OR_RETURN(auto f, Create(name));
  BULLION_RETURN_NOT_OK(f->Append(bullion::Slice(bytes.data(), bytes.size())));
  return f->Flush();
}

Result<uint64_t> FileDir::FileSize(const std::string& name) const {
  struct stat st;
  if (::stat(PathOf(name).c_str(), &st) != 0) {
    return Status::IOError("stat " + name + ": " + std::strerror(errno));
  }
  return static_cast<uint64_t>(st.st_size);
}

Status MakeDir(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) return Status::IOError("mkdir " + path + ": " + ec.message());
  return Status::OK();
}

Status RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  if (ec) return Status::IOError("rm -r " + path + ": " + ec.message());
  return Status::OK();
}

std::string FsType(const std::string& path) {
  struct statfs sf;
  if (::statfs(path.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlay";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(sf.f_type));
      return buf;
    }
  }
}

double PeakRssMb() {
  struct rusage ru;
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t LogicalBytes(const std::vector<ColumnVector>& columns) {
  uint64_t n = 0;
  for (const ColumnVector& c : columns) {
    n += bullion::ApproxColumnVectorBytes(c);
  }
  return n;
}

uint64_t ColumnChecksum(const ColumnVector& column, uint64_t seed) {
  auto mix = [&seed](const void* data, size_t len) {
    seed = bullion::XxHash64(data, len, seed);
  };
  const auto& iv = column.int_values();
  const auto& rv = column.real_values();
  if (!iv.empty()) mix(iv.data(), iv.size() * sizeof(int64_t));
  if (!rv.empty()) mix(rv.data(), rv.size() * sizeof(double));
  for (const std::string& s : column.bin_values()) {
    uint64_t len = s.size();
    mix(&len, sizeof(len));
    if (!s.empty()) mix(s.data(), s.size());
  }
  for (const auto& level : column.offsets()) {
    if (!level.empty()) mix(level.data(), level.size() * sizeof(int64_t));
  }
  const auto& valid = column.validity();
  if (!valid.empty()) mix(valid.data(), valid.size());
  uint64_t rows = column.num_rows();
  mix(&rows, sizeof(rows));
  return seed;
}

bullion::obs::HistogramSnapshot RegistryHist(const std::string& name) {
  return bullion::obs::MetricsRegistry::Global().GetHistogram(name)->Snapshot();
}

uint64_t RegistryCounter(const std::string& name) {
  return bullion::obs::MetricsRegistry::Global().GetCounter(name)->value();
}


}  // namespace perfbench
