#include "serving.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <iterator>

#include "net/client.h"
#include "net/protocol.h"

namespace perfbench {

using habf::KeySpan;

size_t TimingBackend::QueryBatch(KeySpan keys, uint8_t* out) const {
  const uint64_t start = NowNs();
  const size_t positives = inner_->QueryBatch(keys, out);
  query_ns_.fetch_add(NowNs() - start, std::memory_order_relaxed);
  query_calls_.fetch_add(1, std::memory_order_relaxed);
  query_keys_.fetch_add(keys.size(), std::memory_order_relaxed);
  return positives;
}

bool TimingBackend::Mutate(bool insert, KeySpan keys, uint64_t* applied,
                           std::string* error) {
  const uint64_t start = NowNs();
  const bool ok = inner_->Mutate(insert, keys, applied, error);
  mutate_ns_.fetch_add(NowNs() - start, std::memory_order_relaxed);
  mutate_calls_.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

TimingBackend::Totals TimingBackend::totals() const {
  Totals t;
  t.query_calls = query_calls_.load(std::memory_order_relaxed);
  t.query_keys = query_keys_.load(std::memory_order_relaxed);
  t.query_ns = query_ns_.load(std::memory_order_relaxed);
  t.mutate_calls = mutate_calls_.load(std::memory_order_relaxed);
  t.mutate_ns = mutate_ns_.load(std::memory_order_relaxed);
  return t;
}

size_t NullBackend::QueryBatch(KeySpan keys, uint8_t* out) const {
  std::fill(out, out + keys.size(), uint8_t{1});
  return keys.size();
}

bool NullBackend::Mutate(bool /*insert*/, KeySpan keys, uint64_t* applied,
                         std::string* /*error*/) {
  *applied = keys.size();
  return true;
}

void StreamBlockSource::Next(PlannedRequest* out) {
  out->kind = PlannedRequest::kQuery;
  out->keys.clear();
  out->expect.clear();
  for (size_t i = 0; i < block_; ++i) {
    out->keys.push_back(stream_[next_]);
    out->expect.push_back(static_cast<int8_t>(answers_[next_]));
    next_ = next_ + 1 == stream_.size() ? 0 : next_ + 1;
  }
}

namespace {

/// One query request in this many is timed (all are counted and checked).
constexpr uint64_t kSampleEvery = 16;

/// Client connections run on CPUs 0-1 and the server's threads on CPUs 2-3
/// (they inherit the mask of the thread that starts them), so the guest
/// scheduler cannot stack a client and a worker on one CPU: on a 4-vCPU
/// Xeon VM this cut the run-to-run spread of the query p99 from 0.14 to 0.08.
/// Runs whose affinity mask lacks any of CPUs 0-3 go unpinned.
constexpr int kClientCpus[] = {0, 1};
constexpr int kServerCpus[] = {2, 3};

std::atomic<uint64_t> pin_attempts{0};
std::atomic<uint64_t> pin_failures{0};

bool CanPin() {
  static const bool can = [] {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
    for (const int cpu : {0, 1, 2, 3}) {
      if (!CPU_ISSET(cpu, &allowed)) return false;
    }
    return true;
  }();
  return can;
}

/// Restricts the calling thread to `cpus`, counting the attempt and any
/// failure; returns its previous mask.
template <size_t N>
cpu_set_t PinCallingThread(const int (&cpus)[N]) {
  cpu_set_t previous;
  CPU_ZERO(&previous);
  sched_getaffinity(0, sizeof(previous), &previous);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  pin_attempts.fetch_add(1, std::memory_order_relaxed);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    pin_failures.fetch_add(1, std::memory_order_relaxed);
  }
  return previous;
}

struct Slot {
  PlannedRequest request;
  uint64_t id = 0;
  uint64_t sent_ns = 0;
};

/// What one connection measured; merged into WireLoadResult after join.
struct ConnectionResult {
  WireLoadResult r;
  bool ok = true;
};

void RunConnection(const WireLoadOptions& options, RequestSource* source,
                   size_t index, uint64_t measure_start, uint64_t measure_end,
                   ConnectionResult* out) {
  if (CanPin()) {
    const int cpu[] = {kClientCpus[index % std::size(kClientCpus)]};
    PinCallingThread(cpu);
  }
  WireLoadResult& r = out->r;
  r.query = ChunkedSamples(measure_start, options.seconds, kSampleEvery);
  auto fail = [&](const std::string& what) {
    out->ok = false;
    if (r.first_error.empty()) r.first_error = what;
  };
  habf::net::BlockingClient client;
  std::string error;
  if (!client.Connect("127.0.0.1", options.port, &error)) {
    fail("connect: " + error);
    return;
  }
  std::vector<Slot> slots(options.window);
  uint64_t sent = 0;
  uint64_t received = 0;
  uint64_t next_id = 1;
  bool sending = true;
  habf::net::OwnedFrame frame;
  for (;;) {
    while (sending && sent - received < options.window) {
      if (NowNs() >= measure_end) {
        sending = false;
        break;
      }
      Slot& slot = slots[sent % options.window];
      source->Next(&slot.request);
      slot.id = next_id++;
      const KeySpan keys(slot.request.keys.data(), slot.request.keys.size());
      slot.sent_ns = NowNs();
      const bool ok =
          slot.request.kind == PlannedRequest::kQuery
              ? client.SendQuery(slot.id, keys, &error)
              : client.SendMutation(
                    slot.id, slot.request.kind == PlannedRequest::kInsert,
                    keys, &error);
      if (!ok) {
        fail("send: " + error);
        r.errors += sent - received + 1;
        return;
      }
      ++sent;
      ++r.requests_sent;
    }
    if (sent == received) break;
    if (!client.ReadFrame(&frame, &error)) {
      fail("read: " + error);
      r.errors += sent - received;
      return;
    }
    const uint64_t now = NowNs();
    Slot& slot = slots[received % options.window];
    ++received;
    if (frame.request_id != slot.id) {
      fail("response out of order");
      r.errors += sent - received + 1;
      return;
    }
    const bool counted = now >= measure_start && now < measure_end;
    const size_t num_keys = slot.request.keys.size();
    if (frame.op == habf::net::kOpError) {
      ++r.errors;
      continue;
    }
    if (slot.request.kind == PlannedRequest::kQuery) {
      habf::net::QueryResponseView view;
      if (frame.op != habf::net::kOpQueryResponse ||
          !habf::net::ParseQueryResponsePayload(frame.payload, &view,
                                                &error) ||
          view.status != habf::net::kStatusOk || view.key_count != num_keys) {
        ++r.errors;
        continue;
      }
      if (options.check_answers) {
        for (size_t i = 0; i < num_keys; ++i) {
          const int8_t expect = slot.request.expect[i];
          if (expect >= 0 && view.Bit(i) != (expect == 1)) {
            ++r.wrong_answers;
            if (r.first_error.empty()) {
              r.first_error = "wrong answer for key " +
                              std::string(slot.request.keys[i]);
            }
          }
        }
      }
      if (counted) r.query.Add(now, now - slot.sent_ns, num_keys);
    } else {
      habf::net::MutateResponseView view;
      if (frame.op != habf::net::kOpMutateResponse ||
          !habf::net::ParseMutateResponsePayload(frame.payload, &view,
                                                 &error) ||
          view.status != habf::net::kStatusOk || view.applied != num_keys) {
        ++r.errors;
        continue;
      }
      if (counted) {
        r.mutate_latency_ns.push_back(now - slot.sent_ns);
        r.mutate_keys += num_keys;
      }
      if (options.on_mutation_ack) options.on_mutation_ack(num_keys);
    }
  }
}

}  // namespace

std::string CpuPinning() {
  const uint64_t attempts = pin_attempts.load(std::memory_order_relaxed);
  const uint64_t failures = pin_failures.load(std::memory_order_relaxed);
  if (!CanPin()) return "no: CPUs 0-3 are not all in the affinity mask";
  if (attempts == 0) return "no: no wire load ran";
  if (failures == 0) return "yes: clients on CPUs 0-1, server on 2-3";
  return (failures == attempts ? "no: " : "partly: ") +
         std::to_string(failures) + " of " + std::to_string(attempts) +
         " sched_setaffinity calls failed";
}

bool RunWireLoad(const WireLoadOptions& options,
                 const std::vector<RequestSource*>& sources,
                 WireLoadResult* result) {
  const uint64_t start = NowNs();
  const uint64_t measure_start =
      start + static_cast<uint64_t>(options.warmup_s * 1e9);
  const uint64_t measure_end =
      measure_start + static_cast<uint64_t>(options.seconds * 1e9);
  std::vector<ConnectionResult> per(sources.size());
  std::vector<std::thread> threads;
  threads.reserve(sources.size());
  for (size_t c = 0; c < sources.size(); ++c) {
    threads.emplace_back(RunConnection, std::cref(options), sources[c], c,
                         measure_start, measure_end, &per[c]);
  }
  for (std::thread& t : threads) t.join();

  bool ok = true;
  WireLoadResult& r = *result;
  r = WireLoadResult{};
  r.measured_s = options.seconds;
  for (ConnectionResult& c : per) {
    ok = ok && c.ok;
    r.requests_sent += c.r.requests_sent;
    r.errors += c.r.errors;
    r.wrong_answers += c.r.wrong_answers;
    r.mutate_keys += c.r.mutate_keys;
    r.query.Merge(c.r.query);
    r.mutate_latency_ns.insert(r.mutate_latency_ns.end(),
                               c.r.mutate_latency_ns.begin(),
                               c.r.mutate_latency_ns.end());
    if (r.first_error.empty()) r.first_error = c.r.first_error;
  }
  return ok;
}

ServedLoad RunServedLoad(habf::net::ServerBackend* backend, size_t workers,
                         WireLoadOptions options,
                         const std::vector<RequestSource*>& sources,
                         Gate* gate) {
  ServedLoad served;
  habf::net::ServerOptions server_options;
  server_options.num_workers = workers;
  habf::net::Server server(backend, server_options);
  std::string error;
  bool started = false;
  if (CanPin()) {
    const cpu_set_t previous = PinCallingThread(kServerCpus);
    started = server.Start(&error);
    if (sched_setaffinity(0, sizeof(previous), &previous) != 0) {
      pin_failures.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    started = server.Start(&error);
  }
  if (!started) {
    gate->Check(false, "server start failed: " + error);
    return served;
  }
  options.port = server.port();
  const uint64_t start = NowNs();
  const bool ok = RunWireLoad(options, sources, &served.load);
  served.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  served.stats = server.stats();
  server.Shutdown();
  const WireLoadResult& load = served.load;
  gate->attempted += load.requests_sent;
  gate->Check(ok && load.errors == 0, "wire load failed: " + load.first_error,
              load.errors);
  gate->Check(load.wrong_answers == 0,
              "wrong answers over the wire: " + load.first_error,
              load.wrong_answers);
  gate->Check(served.stats.protocol_errors == 0,
              std::to_string(served.stats.protocol_errors) + " protocol errors",
              served.stats.protocol_errors);
  return served;
}

// --- compactor ----------------------------------------------------------------

MutationCompactor::MutationCompactor(habf::DynamicShardedHabf* filter,
                                     double threshold)
    : filter_(filter), threshold_(threshold), thread_([this] { Loop(); }) {}

MutationCompactor::~MutationCompactor() { Stop(); }

void MutationCompactor::OnMutationAck(size_t keys) {
  habf::MutexLock lock(mu_);
  pending_keys_ += keys;
  if (pending_keys_ >= 64) cv_.NotifyOne();
}

void MutationCompactor::Stop() {
  {
    habf::MutexLock lock(mu_);
    stop_ = true;
    cv_.NotifyOne();
  }
  if (thread_.joinable()) thread_.join();
}

std::vector<uint64_t> MutationCompactor::pass_ns() const {
  habf::MutexLock lock(mu_);
  return pass_ns_;
}

size_t MutationCompactor::max_delta_keys() const {
  habf::MutexLock lock(mu_);
  return max_delta_keys_;
}

void MutationCompactor::Loop() {
  for (;;) {
    {
      habf::MutexLock lock(mu_);
      while (!stop_ && pending_keys_ < 64) cv_.Wait(mu_);
      if (stop_) return;
      pending_keys_ = 0;
    }
    const size_t delta = filter_->delta_size();
    bool dirty = false;
    for (size_t s = 0; s < filter_->num_shards() && !dirty; ++s) {
      dirty = filter_->dirty_fraction(s) > threshold_;
    }
    uint64_t elapsed = 0;
    bool rebuilt = false;
    if (dirty) {
      const uint64_t start = NowNs();
      rebuilt = filter_->CompactDirtyShards().shards_rebuilt > 0;
      elapsed = NowNs() - start;
    }
    habf::MutexLock lock(mu_);
    max_delta_keys_ = std::max(max_delta_keys_, delta);
    if (rebuilt) pass_ns_.push_back(elapsed);
  }
}

}  // namespace perfbench
