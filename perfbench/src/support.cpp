#include "bench.hpp"

#include "exec/registry.hpp"
#include "exec/seed.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

proxima::casestudy::CampaignConfig
scenario_config(const std::string& scenario, std::uint32_t runs,
                std::optional<std::uint64_t> seed) {
  proxima::casestudy::CampaignConfig config =
      proxima::exec::ScenarioRegistry::global().at(scenario).make_config(runs);
  if (seed) {
    config.input_seed = *seed;
    config.layout_seed = proxima::exec::splitmix64_mix(*seed);
  }
  return config;
}

namespace {

/// Shortest round-trip decimal form: every digit the double carries.
std::string number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

} // namespace

void Report::add(std::string name, double value, std::string unit) {
  if (!std::isfinite(value)) {
    correct = false;
    std::cerr << "metric " << name << " is not finite\n";
    value = 0.0;
  }
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Report::expect(bool ok, std::uint64_t bad_runs, const std::string& what) {
  if (!ok) {
    failed += std::max<std::uint64_t>(bad_runs, 1);
    correct = false;
    std::cerr << "output check failed: " << what << '\n';
  }
}

void Report::print() const {
  for (const Metric& metric : metrics) {
    std::printf("%-40s %16.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("runs attempted %llu, failed %llu, outputs %s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(std::min(failed, attempted)),
              correct ? "correct" : "INCORRECT");
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(std::min(failed, attempted));
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "" : ", ") + json_string(metrics[i].name) +
            ": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

Tracer::Tracer() : epoch_(Clock::now()) {}

int Tracer::begin(std::string name, std::int64_t run) {
  Span span;
  span.name = std::move(name);
  span.run = run;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
          .count();
  spans_.push_back(std::move(span));
  child_us_.push_back(0.0);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  Span& span = spans_.at(static_cast<std::size_t>(id));
  span.end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
          .count();
  // Scopes nest, so `id` is normally the innermost open span; erase it
  // wherever it sits so an early stop() of an outer scope cannot corrupt
  // the parent links of later spans.
  const auto open = std::find(open_.rbegin(), open_.rend(), id);
  if (open != open_.rend()) {
    open_.erase(std::next(open).base());
  }
  if (span.parent >= 0) {
    child_us_[static_cast<std::size_t>(span.parent)] += duration_us(id);
  }
}

double Tracer::duration_us(int id) const {
  const Span& span = spans_.at(static_cast<std::size_t>(id));
  return span.end_us - span.start_us;
}

double Tracer::self_us(int id) const {
  return duration_us(id) - child_us_.at(static_cast<std::size_t>(id));
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  out << "{\"traceEvents\": [\n";
  out << "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, \"tid\": "
         "1, \"args\": {\"name\": \"perfbench\"}},\n";
  out << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": 1, "
         "\"args\": {\"name\": \"main\"}}";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const int id = static_cast<int>(i);
    out << ",\n{\"ph\": \"X\", \"name\": " << json_string(span.name)
        << ", \"pid\": 1, \"tid\": 1, \"ts\": " << number(span.start_us)
        << ", \"dur\": " << number(duration_us(id))
        << ", \"args\": {\"id\": " << id << ", \"parent\": " << span.parent
        << ", \"run\": " << span.run << ", \"self_us\": "
        << number(self_us(id)) << "}}";
  }
  out << "\n]}\n";
  if (!out.flush()) {
    throw std::runtime_error("cannot write trace file " + path);
  }
}

Scope::Scope(Tracer* tracer, std::string name, std::int64_t run)
    : tracer_(tracer) {
  if (tracer_ != nullptr) {
    id_ = tracer_->begin(std::move(name), run);
  }
  start_ = Clock::now();
}

Scope::~Scope() { stop(); }

double Scope::stop() {
  if (!seconds_) {
    seconds_ = seconds_since(start_);
    if (tracer_ != nullptr) {
      tracer_->end(id_);
    }
  }
  return *seconds_;
}

} // namespace perfbench
