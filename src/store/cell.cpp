#include "cell.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <limits>

namespace proxima::store {

namespace {

// File layout (all integers little-endian):
//   magic   8 bytes  "PXSTORE1"
//   u32     header payload length
//   u64     FNV-1a checksum of the header payload
//   ...     header payload (scenario, fingerprint, seeds)
//   repeated records:
//     u32   record payload length
//     u64   FNV-1a checksum of the record payload
//     ...   record payload (see write_record)
constexpr char kMagic[8] = {'P', 'X', 'S', 'T', 'O', 'R', 'E', '1'};

std::uint64_t fnv1a(std::span<const char> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Little-endian append-only encoder for one payload (header or record).
class Encoder {
public:
  void u8(std::uint8_t value) { bytes_.push_back(static_cast<char>(value)); }
  void u32(std::uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      bytes_.push_back(static_cast<char>(value >> (8 * i)));
    }
  }
  void u64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      bytes_.push_back(static_cast<char>(value >> (8 * i)));
    }
  }
  void f64(double value) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    u64(bits);
  }
  void str(const std::string& value) {
    u32(static_cast<std::uint32_t>(value.size()));
    bytes_.insert(bytes_.end(), value.begin(), value.end());
  }

  const std::vector<char>& bytes() const noexcept { return bytes_; }

private:
  std::vector<char> bytes_;
};

/// Strict little-endian decoder over one payload; every read is
/// bounds-checked and a short payload throws (the frame length already
/// matched its checksum, so a short read here means a producer bug, not
/// disk corruption — still refuse).
class Decoder {
public:
  Decoder(std::span<const char> bytes, const std::string& path)
      : bytes_(bytes), path_(path) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= std::uint32_t{static_cast<unsigned char>(bytes_[pos_++])}
               << (8 * i);
    }
    return value;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= std::uint64_t{static_cast<unsigned char>(bytes_[pos_++])}
               << (8 * i);
    }
    return value;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }
  std::string str() {
    const std::uint32_t length = u32();
    need(length);
    std::string value(bytes_.data() + pos_, length);
    pos_ += length;
    return value;
  }

  /// An element count that sizes a container.  Each element encodes to at
  /// least `min_element_bytes`, so a count the remaining payload cannot
  /// hold is refused before anything is allocated for it.
  std::size_t count(std::size_t min_element_bytes, const char* what) {
    const std::uint32_t value = u32();
    if (value > (bytes_.size() - pos_) / min_element_bytes) {
      throw StoreError(path_ + ": " + what + " count " +
                       std::to_string(value) +
                       " exceeds the bytes left in its payload");
    }
    return value;
  }

  bool done() const noexcept { return pos_ == bytes_.size(); }
  void expect_done() const {
    if (!done()) {
      throw StoreError(path_ + ": trailing bytes inside a framed payload");
    }
  }

private:
  void need(std::size_t count) const {
    if (bytes_.size() - pos_ < count) {
      throw StoreError(path_ + ": framed payload shorter than its contents");
    }
  }

  std::span<const char> bytes_;
  std::size_t pos_ = 0;
  const std::string& path_;
};

void encode_header(Encoder& enc, const CellHeader& header) {
  enc.str(header.scenario);
  enc.u64(header.fingerprint);
  enc.u64(header.input_seed);
  enc.u64(header.layout_seed);
}

CellHeader decode_header(Decoder& dec) {
  CellHeader header;
  header.scenario = dec.str();
  header.fingerprint = dec.u64();
  header.input_seed = dec.u64();
  header.layout_seed = dec.u64();
  dec.expect_done();
  return header;
}

constexpr std::uint8_t kFlagCorruptInput = 1u << 0;
constexpr std::uint8_t kFlagVerified = 1u << 1;
constexpr std::uint8_t kFlagHasMetrics = 1u << 2;

void encode_metrics(Encoder& enc, const obs::MetricsShard& metrics) {
  enc.u32(static_cast<std::uint32_t>(metrics.counters.size()));
  for (const auto& [name, value] : metrics.counters) {
    enc.str(name);
    enc.u64(value);
  }
  enc.u32(static_cast<std::uint32_t>(metrics.histograms.size()));
  for (const auto& [name, histogram] : metrics.histograms) {
    enc.str(name);
    enc.u64(histogram.count);
    enc.u64(histogram.sum);
    enc.u64(histogram.min);
    enc.u64(histogram.max);
    // Sparse buckets: per-run histograms hold a handful of samples over
    // 65 log2 buckets.
    std::uint32_t populated = 0;
    for (const std::uint64_t bucket : histogram.buckets) {
      populated += bucket != 0 ? 1 : 0;
    }
    enc.u32(populated);
    for (std::size_t i = 0; i < histogram.buckets.size(); ++i) {
      if (histogram.buckets[i] != 0) {
        enc.u32(static_cast<std::uint32_t>(i));
        enc.u64(histogram.buckets[i]);
      }
    }
  }
  enc.u32(static_cast<std::uint32_t>(metrics.series.size()));
  for (const auto& [name, values] : metrics.series) {
    enc.str(name);
    enc.u32(static_cast<std::uint32_t>(values.size()));
    for (const double value : values) {
      enc.f64(value);
    }
  }
  enc.u32(static_cast<std::uint32_t>(metrics.gauges.size()));
  for (const auto& [name, value] : metrics.gauges) {
    enc.str(name);
    enc.f64(value);
  }
}

obs::MetricsShard decode_metrics(Decoder& dec, const std::string& path) {
  obs::MetricsShard metrics;
  for (std::uint32_t i = dec.u32(); i != 0; --i) {
    std::string name = dec.str();
    metrics.counters[std::move(name)] = dec.u64();
  }
  for (std::uint32_t i = dec.u32(); i != 0; --i) {
    std::string name = dec.str();
    obs::Histogram histogram;
    histogram.count = dec.u64();
    histogram.sum = dec.u64();
    histogram.min = dec.u64();
    histogram.max = dec.u64();
    for (std::uint32_t b = dec.u32(); b != 0; --b) {
      const std::uint32_t bucket = dec.u32();
      if (bucket >= obs::Histogram::kBuckets) {
        throw StoreError(path + ": histogram bucket index out of range");
      }
      histogram.buckets[bucket] = dec.u64();
    }
    metrics.histograms[std::move(name)] = histogram;
  }
  for (std::uint32_t i = dec.u32(); i != 0; --i) {
    std::string name = dec.str();
    std::vector<double> values(dec.count(8, "series value"));
    for (double& value : values) {
      value = dec.f64();
    }
    metrics.series[std::move(name)] = std::move(values);
  }
  for (std::uint32_t i = dec.u32(); i != 0; --i) {
    std::string name = dec.str();
    metrics.gauges[std::move(name)] = dec.f64();
  }
  return metrics;
}

void encode_record(Encoder& enc, const StoredRun& run) {
  enc.u64(run.index);
  enc.f64(run.sample.uoa_cycles);
  std::uint8_t flags = 0;
  flags |= run.sample.corrupt_input ? kFlagCorruptInput : 0;
  flags |= run.verified ? kFlagVerified : 0;
  flags |= run.has_metrics ? kFlagHasMetrics : 0;
  enc.u8(flags);
  std::uint32_t counter_count = 0;
  run.sample.counters.for_each(
      [&](const char*, std::uint64_t) { ++counter_count; });
  enc.u32(counter_count);
  run.sample.counters.for_each(
      [&](const char*, std::uint64_t value) { enc.u64(value); });
  enc.u32(static_cast<std::uint32_t>(run.sample.partitions.size()));
  for (const casestudy::PartitionActivity& activity : run.sample.partitions) {
    enc.str(activity.partition);
    enc.u32(activity.overruns);
    enc.u32(static_cast<std::uint32_t>(activity.cycles.size()));
    for (const double cycles : activity.cycles) {
      enc.f64(cycles);
    }
  }
  if (run.has_metrics) {
    encode_metrics(enc, run.metrics);
  }
}

StoredRun decode_record(Decoder& dec, const std::string& path) {
  StoredRun run;
  run.index = dec.u64();
  run.sample.uoa_cycles = dec.f64();
  const std::uint8_t flags = dec.u8();
  run.sample.corrupt_input = (flags & kFlagCorruptInput) != 0;
  run.verified = (flags & kFlagVerified) != 0;
  run.has_metrics = (flags & kFlagHasMetrics) != 0;
  const std::uint32_t counter_count = dec.u32();
  std::uint32_t expected = 0;
  run.sample.counters.for_each([&](const char*, std::uint64_t&) { ++expected; });
  if (counter_count != expected) {
    // The counter block is positional (mem::PerfCounters::for_each order);
    // a different field count means the record predates or postdates this
    // build's counter set and cannot be replayed faithfully.
    throw StoreError(path + ": record carries " +
                     std::to_string(counter_count) +
                     " perf counters, this build expects " +
                     std::to_string(expected));
  }
  run.sample.counters.for_each(
      [&](const char*, std::uint64_t& value) { value = dec.u64(); });
  // A partition is at least its name length, overruns and cycle count.
  run.sample.partitions.resize(dec.count(12, "partition"));
  for (casestudy::PartitionActivity& activity : run.sample.partitions) {
    activity.partition = dec.str();
    activity.overruns = dec.u32();
    activity.cycles.resize(dec.count(8, "partition cycle"));
    for (double& cycles : activity.cycles) {
      cycles = dec.f64();
    }
  }
  if (run.has_metrics) {
    run.metrics = decode_metrics(dec, path);
  }
  dec.expect_done();
  return run;
}

/// Write one length+checksum framed payload.
void write_frame(std::ofstream& out, const Encoder& enc,
                 const std::string& path) {
  const std::vector<char>& payload = enc.bytes();
  Encoder frame;
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u64(fnv1a(payload));
  out.write(frame.bytes().data(),
            static_cast<std::streamsize>(frame.bytes().size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!out.good()) {
    throw StoreError(path + ": write failed");
  }
}

/// Read the whole file; empty optional when it does not exist.
std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw StoreError(path + ": cannot open cell file");
  }
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  if (in.bad()) {
    throw StoreError(path + ": read failed");
  }
  return bytes;
}

/// Pull the next length+checksum framed payload out of `bytes` at `pos`.
std::span<const char> next_frame(std::span<const char> bytes,
                                 std::size_t& pos, const std::string& path,
                                 const char* what) {
  if (bytes.size() - pos < 12) {
    throw StoreError(path + ": truncated " + what + " frame at offset " +
                     std::to_string(pos));
  }
  Decoder header(bytes.subspan(pos, 12), path);
  const std::uint32_t length = header.u32();
  const std::uint64_t checksum = header.u64();
  pos += 12;
  if (bytes.size() - pos < length) {
    throw StoreError(path + ": truncated " + what + " payload at offset " +
                     std::to_string(pos) + " (want " +
                     std::to_string(length) + " bytes, have " +
                     std::to_string(bytes.size() - pos) + ")");
  }
  const std::span<const char> payload = bytes.subspan(pos, length);
  if (fnv1a(payload) != checksum) {
    throw StoreError(path + ": checksum mismatch in " + what +
                     " at offset " + std::to_string(pos) +
                     " — the cell is corrupt; delete it and re-run");
  }
  pos += length;
  return payload;
}

CellData parse_cell(std::span<const char> bytes, const std::string& path) {
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    throw StoreError(path + ": not a proxima campaign cell (bad magic)");
  }
  std::size_t pos = sizeof(kMagic);
  CellData cell;
  {
    Decoder dec(next_frame(bytes, pos, path, "header"), path);
    cell.header = decode_header(dec);
  }
  while (pos < bytes.size()) {
    Decoder dec(next_frame(bytes, pos, path, "record"), path);
    cell.runs.push_back(decode_record(dec, path));
  }
  std::stable_sort(cell.runs.begin(), cell.runs.end(),
                   [](const StoredRun& a, const StoredRun& b) {
                     return a.index < b.index;
                   });
  cell.runs.erase(std::unique(cell.runs.begin(), cell.runs.end(),
                              [](const StoredRun& a, const StoredRun& b) {
                                return a.index == b.index;
                              }),
                  cell.runs.end());
  return cell;
}

} // namespace

std::uint64_t CellData::contiguous_prefix() const {
  std::uint64_t count = 0;
  for (const StoredRun& run : runs) {
    if (run.index != count) {
      break;
    }
    ++count;
  }
  return count;
}

CellData load_cell(const std::string& path) {
  const std::vector<char> bytes = read_file(path);
  return parse_cell(bytes, path);
}

CellWriter::CellWriter(std::string path, const CellHeader& header)
    : path_(std::move(path)) {
  if (std::filesystem::exists(path_)) {
    // Appending: re-validate the whole file so we never extend a corrupt
    // cell, and refuse to mix configs under one key.
    CellData existing = load_cell(path_);
    if (existing.header.scenario != header.scenario ||
        existing.header.fingerprint != header.fingerprint) {
      throw StoreError(
          path_ + ": cell belongs to scenario '" + existing.header.scenario +
          "' fingerprint " + std::to_string(existing.header.fingerprint) +
          ", refusing to append scenario '" + header.scenario +
          "' fingerprint " + std::to_string(header.fingerprint));
    }
    for (const StoredRun& run : existing.runs) {
      stored_.insert(run.index);
    }
    out_.open(path_, std::ios::binary | std::ios::app);
    if (!out_) {
      throw StoreError(path_ + ": cannot open cell file for append");
    }
    return;
  }
  out_.open(path_, std::ios::binary);
  if (!out_) {
    throw StoreError(path_ + ": cannot create cell file");
  }
  out_.write(kMagic, sizeof(kMagic));
  Encoder enc;
  encode_header(enc, header);
  write_frame(out_, enc, path_);
  out_.flush();
  if (!out_.good()) {
    throw StoreError(path_ + ": write failed");
  }
}

void CellWriter::append(std::uint64_t first_index,
                        std::span<const casestudy::RunSample> samples,
                        std::span<const obs::MetricsShard> run_metrics,
                        bool verified) {
  if (!run_metrics.empty() && run_metrics.size() != samples.size()) {
    throw StoreError(path_ +
                     ": append: run_metrics must be empty or match samples");
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const std::uint64_t index = first_index + i;
    if (!stored_.insert(index).second) {
      continue; // already on disk — runs are pure functions of their index
    }
    StoredRun run;
    run.index = index;
    run.sample = samples[i];
    run.verified = verified;
    run.has_metrics = !run_metrics.empty();
    if (run.has_metrics) {
      run.metrics = run_metrics[i];
    }
    Encoder enc;
    encode_record(enc, run);
    write_frame(out_, enc, path_);
  }
  out_.flush();
  if (!out_.good()) {
    throw StoreError(path_ + ": write failed");
  }
}

} // namespace proxima::store
