#include "harness.h"

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "workload/dataset.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

/// Nearest rank of percentile `pct` among `n` samples, 1-based, computed in
/// hundredths of a percent so 99.9 of 1000 is exactly rank 999.
size_t RankOf(size_t n, double pct) {
  const auto hundredths = static_cast<unsigned __int128>(std::llround(pct * 100));
  const auto rank = static_cast<size_t>((hundredths * n + 9999) / 10000);
  return std::max<size_t>(rank, 1);
}

constexpr double kTailLadder[] = {99.99, 99.9, 99.0, 95.0, 90.0, 50.0};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

double PercentileOfSorted(const std::vector<uint64_t>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const size_t rank = std::min(RankOf(sorted.size(), pct), sorted.size());
  return static_cast<double>(sorted[rank - 1]);
}

double TailPercentile(size_t n) {
  for (const double pct : kTailLadder) {
    const size_t rank = RankOf(n, pct);
    if (rank <= n && n - rank >= 10) return pct;
  }
  return 0.0;
}

Summary Summarize(std::vector<uint64_t>* samples) {
  std::sort(samples->begin(), samples->end());
  Summary s;
  s.n = samples->size();
  if (s.n == 0) return s;
  s.p50 = PercentileOfSorted(*samples, 50.0);
  s.tail_pct = TailPercentile(s.n);
  s.tail = s.tail_pct > 0.0 ? PercentileOfSorted(*samples, s.tail_pct) : s.p50;
  if (s.tail_pct >= 99.0) {
    s.p99 = PercentileOfSorted(*samples, 99.0);
    s.p99_pct = 99.0;
  } else {
    s.p99 = s.tail;
    s.p99_pct = s.tail_pct;
  }
  s.max = static_cast<double>(samples->back());
  return s;
}

ChunkedSamples::ChunkedSamples(uint64_t start_ns, double seconds,
                               uint64_t sample_every)
    : start_ns_(start_ns), sample_every_(std::max<uint64_t>(sample_every, 1)) {
  const size_t chunks = std::max<size_t>(1, static_cast<size_t>(seconds + 0.5));
  chunk_ns_ = std::max<uint64_t>(
      1, static_cast<uint64_t>(seconds * 1e9 / static_cast<double>(chunks)));
  latency_ns_.resize(chunks);
  keys_.assign(chunks, 0);
}

void ChunkedSamples::Add(uint64_t done_ns, uint64_t latency_ns, uint64_t keys) {
  if (done_ns < start_ns_) return;
  const uint64_t chunk = (done_ns - start_ns_) / chunk_ns_;
  if (chunk >= latency_ns_.size()) return;
  if (operations_++ % sample_every_ == 0) latency_ns_[chunk].push_back(latency_ns);
  keys_[chunk] += keys;
}

void ChunkedSamples::Merge(const ChunkedSamples& other) {
  if (latency_ns_.empty()) {
    *this = other;
    return;
  }
  for (size_t c = 0; c < latency_ns_.size() && c < other.latency_ns_.size();
       ++c) {
    latency_ns_[c].insert(latency_ns_[c].end(), other.latency_ns_[c].begin(),
                          other.latency_ns_[c].end());
    keys_[c] += other.keys_[c];
  }
}

ChunkedSamples::Reduced ChunkedSamples::Reduce() const {
  Reduced r;
  r.chunks = latency_ns_.size();
  std::vector<uint64_t> all;
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p99s;
  bool chunk_p99_ok = r.chunks > 0;
  for (size_t c = 0; c < latency_ns_.size(); ++c) {
    std::vector<uint64_t> chunk = latency_ns_[c];
    all.insert(all.end(), chunk.begin(), chunk.end());
    const Summary s = Summarize(&chunk);
    chunk_p99_ok = chunk_p99_ok && s.p99_pct == 99.0;
    rates.push_back(static_cast<double>(keys_[c]) /
                    (static_cast<double>(chunk_ns_) / 1e9));
    p50s.push_back(s.p50);
    p99s.push_back(s.p99);
  }
  r.all = Summarize(&all);
  r.keys_per_s = Median(rates);
  r.p50 = Median(p50s);
  r.p99_by_chunk = chunk_p99_ok;
  r.p99 = chunk_p99_ok ? Median(p99s) : r.all.p99;
  return r;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

double WeightedFpr(const std::vector<double>& costs,
                   const std::vector<uint8_t>& answers) {
  double hit = 0.0;
  double total = 0.0;
  for (size_t i = 0; i < costs.size(); ++i) {
    total += costs[i];
    if (answers[i] != 0) hit += costs[i];
  }
  return total == 0.0 ? 0.0 : hit / total;
}

// --- spans --------------------------------------------------------------------

uint32_t SpanLog::Begin(const char* name, uint64_t now_ns) {
  SpanRecord record;
  record.id = static_cast<uint32_t>(spans_.size() + 1);
  record.parent = open_.empty() ? 0 : open_.back();
  record.name = name;
  record.start_ns = now_ns;
  record.end_ns = now_ns;
  spans_.push_back(record);
  open_.push_back(record.id);
  return record.id;
}

void SpanLog::End(uint32_t id, uint64_t now_ns) {
  spans_[id - 1].end_ns = now_ns;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void SpanLog::Clear() {
  spans_.clear();
  open_.clear();
}

std::map<std::string, SpanTotals> AggregateSpans(
    const std::vector<SpanRecord>& spans) {
  // Children of each span, as intervals; ids are positions + 1.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size() + 1);
  for (const SpanRecord& span : spans) {
    if (span.parent != 0 && span.parent <= spans.size()) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (const SpanRecord& span : spans) {
    const uint64_t duration = span.end_ns - span.start_ns;
    auto& kids = children[span.id];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t cursor = span.start_ns;
    for (const auto& [begin_raw, end_raw] : kids) {
      const uint64_t begin = std::max(begin_raw, cursor);
      const uint64_t end = std::min(end_raw, span.end_ns);
      if (end > begin) {
        covered += end - begin;
        cursor = end;
      }
    }
    SpanTotals& t = totals[span.name];
    ++t.count;
    t.total_ns += duration;
    t.self_ns += duration - std::min(covered, duration);
  }
  return totals;
}

// --- inputs -------------------------------------------------------------------

LookupInputs MakeLookupInputs(uint64_t seed, const LookupSizes& sizes) {
  habf::DatasetOptions options;
  options.num_positives = sizes.positives;
  options.num_negatives = sizes.negatives + sizes.unseen;
  options.seed = seed;
  habf::Dataset data = habf::GenerateShallaLike(options);

  LookupInputs in;
  in.unseen.reserve(sizes.unseen);
  for (size_t i = sizes.negatives; i < data.negatives.size(); ++i) {
    in.unseen.push_back(std::move(data.negatives[i].key));
  }
  data.negatives.resize(sizes.negatives);
  habf::AssignZipfCosts(&data, 1.0, seed ^ 0xC057C057ULL);
  in.positives = std::move(data.positives);
  in.negatives = std::move(data.negatives);

  std::vector<double> cumulative(in.negatives.size());
  double total = 0.0;
  for (size_t i = 0; i < in.negatives.size(); ++i) {
    total += in.negatives[i].cost;
    cumulative[i] = total;
  }
  habf::Xoshiro256 rng(seed ^ 0x5354524541ULL);  // "STREA"
  in.stream.reserve(sizes.stream);
  in.stream_member.reserve(sizes.stream);
  for (size_t i = 0; i < sizes.stream; ++i) {
    const double r = rng.NextDouble();
    if (r < 0.1) {
      in.stream.push_back(in.positives[rng.NextBounded(in.positives.size())]);
      in.stream_member.push_back(1);
    } else if (r < 0.9) {
      const double u = rng.NextDouble() * total;
      size_t idx = static_cast<size_t>(
          std::upper_bound(cumulative.begin(), cumulative.end(), u) -
          cumulative.begin());
      idx = std::min(idx, in.negatives.size() - 1);
      in.stream.push_back(in.negatives[idx].key);
      in.stream_member.push_back(0);
    } else {
      in.stream.push_back(in.unseen[rng.NextBounded(in.unseen.size())]);
      in.stream_member.push_back(0);
    }
  }
  return in;
}

std::vector<std::string> ServeInputs::Members() const {
  return std::vector<std::string>(keys.begin(), keys.begin() + members);
}

std::vector<habf::WeightedKey> ServeInputs::Negatives() const {
  std::vector<habf::WeightedKey> negatives;
  negatives.reserve(negative_costs.size());
  for (size_t i = 0; i < negative_costs.size(); ++i) {
    negatives.push_back(habf::WeightedKey{keys[members + i], negative_costs[i]});
  }
  return negatives;
}

ServeInputs MakeServeInputs(const ServeKeySpace& space) {
  ServeInputs in;
  in.members = space.members;
  in.keys.reserve(space.size());
  for (size_t i = 0; i < space.size(); ++i) {
    in.keys.push_back(habf::WorkloadStreamKey(space.seed, i));
  }
  in.negative_costs.assign(space.negatives, 1.0);
  return in;
}

// --- request plans ------------------------------------------------------------

RequestPlan::RequestPlan(const ServeInputs* inputs, const ServeKeySpace& space,
                         size_t connection, size_t window, size_t mutate_every,
                         const std::vector<uint8_t>* answers)
    : inputs_(inputs),
      space_(space),
      connection_(connection),
      window_(window),
      mutate_every_(mutate_every),
      answers_(answers),
      rng_(space.seed ^ 0x504C414EULL ^  // "PLAN"
           (0x9E3779B97F4A7C15ULL * (connection + 1))) {}

void RequestPlan::Next(PlannedRequest* out) {
  out->keys.clear();
  out->expect.clear();
  const uint64_t position = position_++;
  while (kept_acked_ < kept_.size() &&
         batches_[kept_[kept_acked_]].position + window_ <= position) {
    ++kept_acked_;
  }

  if (mutate_every_ > 0 && rng_.NextBounded(mutate_every_) == 0) {
    const uint64_t mutation = mutations_++;
    if (mutation % 4 == 3) {
      while (next_removal_ < batches_.size() && Kept(next_removal_)) {
        ++next_removal_;
      }
      if (next_removal_ < batches_.size()) {
        out->kind = PlannedRequest::kRemove;
        for (const std::string& key : batches_[next_removal_].keys) {
          out->keys.push_back(key);
        }
        ++next_removal_;
        return;
      }
    }
    const size_t b = batches_.size();
    Batch batch;
    batch.position = position;
    // Insert keys come from an index range far above the key space, one
    // 2^32 stride per connection, so they are fresh and never collide.
    const uint64_t base = (uint64_t{1} << 40) +
                          (uint64_t{connection_} << 32) + b * kMutationKeys;
    for (size_t j = 0; j < kMutationKeys; ++j) {
      batch.keys.push_back(habf::WorkloadStreamKey(space_.seed, base + j));
    }
    batches_.push_back(std::move(batch));
    if (Kept(b)) kept_.push_back(b);
    out->kind = PlannedRequest::kInsert;
    for (const std::string& key : batches_.back().keys) {
      out->keys.push_back(key);
    }
    return;
  }

  out->kind = PlannedRequest::kQuery;
  if (kept_acked_ > 0 && rng_.NextBounded(8) == 0) {
    const size_t b = kept_[rng_.NextBounded(kept_acked_)];
    out->keys.push_back(batches_[b].keys[rng_.NextBounded(kMutationKeys)]);
    out->expect.push_back(1);
    return;
  }
  const size_t index = rng_.NextBounded(space_.size());
  out->keys.push_back(inputs_->keys[index]);
  if (answers_ != nullptr) {
    out->expect.push_back(static_cast<int8_t>((*answers_)[index]));
  } else {
    out->expect.push_back(index < space_.members ? 1 : -1);
  }
}

// --- host + report ------------------------------------------------------------

std::pair<uint64_t, uint64_t> ReadCpuSteal() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  uint64_t total = 0;
  uint64_t steal = 0;
  uint64_t value = 0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

double StealFraction(std::pair<uint64_t, uint64_t> before,
                     std::pair<uint64_t, uint64_t> after) {
  const uint64_t total = after.second - before.second;
  return total == 0 ? 0.0
                    : static_cast<double>(after.first - before.first) /
                          static_cast<double>(total);
}

std::string FilesystemOf(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL:
      return "ext4";
    case 0x01021994UL:
      return "tmpfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x6969UL:
      return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return buf;
    }
  }
}

std::string HostFingerprintJson(
    const std::vector<std::pair<std::string, std::string>>& extra) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::vector<std::pair<std::string, std::string>> entries = {
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"cpu_model", cpu},
      {"compiler", compiler},
      {"build_type", PERFBENCH_BUILD_TYPE},
  };
  entries.insert(entries.end(), extra.begin(), extra.end());
  std::string json = "{";
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + JsonEscape(entries[i].first) + "\": \"" +
            JsonEscape(entries[i].second) + "\"";
  }
  return json + "}";
}

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Brief(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit, size_t samples,
                 const std::string& note) {
  for (auto& [existing, metric] : metrics_) {
    if (existing == name) {
      metric = Metric{value, unit, samples, note};
      return;
    }
  }
  metrics_.emplace_back(name, Metric{value, unit, samples, note});
}

bool Report::Has(const std::string& name) const {
  for (const auto& entry : metrics_) {
    if (entry.first == name) return true;
  }
  return false;
}

std::string Report::Table() const {
  std::ostringstream out;
  for (const auto& [name, m] : metrics_) {
    char value[40];
    std::snprintf(value, sizeof(value), "%.6g", m.value);
    out << "  " << name;
    for (size_t pad = name.size(); pad < 40; ++pad) out << ' ';
    out << value << ' ' << m.unit;
    if (m.samples > 0) out << "  n=" << m.samples;
    if (!m.note.empty()) out << "  (" << m.note << ")";
    out << '\n';
  }
  return out.str();
}

std::string Report::ResultJson(bool correct, uint64_t attempted,
                               uint64_t failed,
                               const std::vector<std::string>& names) const {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!names.empty() &&
        std::find(names.begin(), names.end(), name) == names.end()) {
      continue;
    }
    if (!first) json += ", ";
    first = false;
    json += "\"" + JsonEscape(name) + "\": {\"value\": " +
            FormatDouble(m.value) + ", \"unit\": \"" + JsonEscape(m.unit) +
            "\"}";
  }
  return json + "}}";
}

}  // namespace perfbench
