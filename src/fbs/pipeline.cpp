#include "fbs/pipeline.hpp"

#include <chrono>
#include <ctime>
#include <thread>

#if defined(__linux__)
#include <time.h>
#endif

namespace fbs::core {

namespace {

/// CPU time consumed by the calling thread. This is what makes per-worker
/// busy accounting meaningful on a machine with fewer cores than workers:
/// wall time would charge a descheduled worker for its neighbors' work.
/// Off Linux the fallback is std::clock() -- process CPU time, which still
/// never counts descheduled wall time but attributes all threads' cycles
/// to each, so per-worker figures become approximate; busy_clock() tells
/// callers which regime they are in so speedup math can refuse to lie.
#if defined(__linux__)
constexpr std::string_view kBusyClockName = "thread-cputime";
std::uint64_t thread_cpu_ns() {
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
  return 0;
}
#else
constexpr std::string_view kBusyClockName = "process-cputime";
std::uint64_t thread_cpu_ns() {
  return static_cast<std::uint64_t>(std::clock()) *
         (1'000'000'000ull / CLOCKS_PER_SEC);
}
#endif

PipelineConfig normalized(PipelineConfig config, std::size_t shards) {
  if (config.workers == 0) config.workers = 1;
  if (config.workers > shards) config.workers = shards;
  if (config.batch == 0) config.batch = 1;
  return config;
}

util::BufferPoolConfig pool_config(const PipelineConfig& config) {
  util::BufferPoolConfig pc;  // 2048-byte buffers
  // Two bursts of bodies per worker (one being filled, one riding the
  // egress ring) plus a burst of slack for the drain lane.
  pc.slab_buffers = config.workers * config.batch * 2 + config.batch;
  pc.lanes = config.workers + 1;  // +1: the drain thread's recycle lane
  pc.lane_cap = config.batch * 2;
  return pc;
}

}  // namespace

std::string_view DatagramPipeline::busy_clock() { return kBusyClockName; }

DatagramPipeline::DatagramPipeline(FbsEndpoint& endpoint,
                                   const PipelineConfig& config,
                                   RejectHook on_reject)
    : endpoint_(endpoint),
      config_(normalized(config, endpoint.shard_count())),
      on_reject_(std::move(on_reject)),
      egress_(config_.egress_capacity),
      buffers_(pool_config(config_)) {
  const std::size_t shards = endpoint_.shard_count();
  const std::size_t workers = config_.workers;
  drain_lane_ = workers;
  drain_buf_.reserve(config_.batch);

  ingress_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s)
    ingress_.push_back(std::make_unique<util::BoundedMpscRing<Item>>(
        config_.ingress_capacity));

  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    workers_.push_back(std::make_unique<Worker>());
    workers_[w]->index = w;
    workers_[w]->batch.reserve(config_.batch);
    workers_[w]->results.reserve(config_.batch);
    workers_[w]->sources.resize(config_.batch);
    workers_[w]->bodies.reserve(config_.batch);
    workers_[w]->burst.reserve(config_.batch);
    for (std::size_t s = w; s < shards; s += workers)
      workers_[w]->shards.push_back(s);
  }

  pool_.set_wake([this] {
    for (auto& wk : workers_) {
      // Empty critical section before notify: a worker between its
      // predicate check and its wait cannot miss the signal.
      { std::lock_guard<std::mutex> lock(wk->mu); }
      wk->cv.notify_all();
    }
    egress_.wake_all();  // workers blocked on a full egress re-check stop
  });
  pool_.start(workers, [this](std::size_t w, const std::atomic<bool>& stop) {
    worker_loop(w, stop);
  });
}

DatagramPipeline::~DatagramPipeline() { stop(); }

void DatagramPipeline::stop() {
  stopped_.store(true, std::memory_order_release);
  pool_.stop();  // sets the flag, wakes every waiter, joins the workers
  // The workers are gone; whatever is still parked in the ingress rings
  // would otherwise hold in_flight above zero forever (the drain_all
  // livelock). Account it here -- single-threaded now, every ring's
  // consumer side is ours.
  Item item;
  for (auto& ring : ingress_) {
    while (ring->try_pop(item)) {
      stats_.shutdown_discards.fetch_add(1, std::memory_order_relaxed);
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      buffers_.release(drain_lane_, std::move(item.wire));
    }
  }
}

std::size_t DatagramPipeline::submit(std::span<Submission> items) {
  if (items.empty()) return 0;
  stats_.submitted.fetch_add(items.size(), std::memory_order_relaxed);
  for (Submission& s : items) s.queued = false;
  if (stopped_.load(std::memory_order_acquire)) {
    stats_.backpressure_drops.fetch_add(items.size(),
                                        std::memory_order_relaxed);
    return 0;
  }
  // Per-submitting-thread staging, reused so steady-state submits never
  // allocate: a scratch principal (identity is the 4 address bytes,
  // rewritten in place), each item's shard, and one shard's group.
  thread_local Principal source;
  thread_local std::vector<std::size_t> shard_of;
  thread_local std::vector<std::size_t> group_index;
  thread_local std::vector<Item> group;
  shard_of.clear();
  for (const Submission& s : items) {
    source.assign_ipv4(s.header.source);
    shard_of.push_back(endpoint_.recv_shard_of_wire(source, s.wire));
  }

  // Group the items by shard, preserving order within each shard (a flow
  // never spans shards, so per-flow FIFO survives the regrouping), then
  // push each group with one ring lock and one worker wake.
  std::size_t queued_total = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (shard_of[i] == SIZE_MAX) continue;  // already grouped
    const std::size_t shard = shard_of[i];
    group.clear();
    group_index.clear();
    for (std::size_t j = i; j < items.size(); ++j) {
      if (shard_of[j] != shard) continue;
      shard_of[j] = SIZE_MAX;
      group.push_back(Item{items[j].header, std::move(items[j].wire)});
      group_index.push_back(j);
    }

    Worker& wk = *workers_[shard % workers_.size()];
    in_flight_.fetch_add(static_cast<std::int64_t>(group.size()),
                         std::memory_order_acq_rel);
    wk.queued.fetch_add(static_cast<std::int64_t>(group.size()),
                        std::memory_order_relaxed);
    const std::size_t pushed =
        ingress_[shard]->try_push_batch({group.data(), group.size()});
    for (std::size_t k = 0; k < pushed; ++k)
      items[group_index[k]].queued = true;
    // A refused item gets its wire back: the ring leaves what it did not
    // take untouched.
    for (std::size_t k = pushed; k < group.size(); ++k)
      items[group_index[k]].wire = std::move(group[k].wire);
    const std::size_t refused = group.size() - pushed;
    if (refused > 0) {
      wk.queued.fetch_sub(static_cast<std::int64_t>(refused),
                          std::memory_order_relaxed);
      in_flight_.fetch_sub(static_cast<std::int64_t>(refused),
                           std::memory_order_acq_rel);
      stats_.backpressure_drops.fetch_add(refused,
                                          std::memory_order_relaxed);
    }
    queued_total += pushed;
    if (pushed > 0) {
      // Same empty-critical-section handshake as the wake hook (see the
      // constructor).
      { std::lock_guard<std::mutex> lock(wk.mu); }
      wk.cv.notify_one();
      // Push-then-recheck closes the race with stop(): if the store to
      // stopped_ is visible now, our items may have landed after stop()'s
      // own ring sweep, so sweep again ourselves (mutex-atomic pops make
      // the accounting exactly-once no matter who wins). If it is not
      // visible, the push happened-before the sweep -- the ring mutex
      // orders them -- and stop() accounts the items.
      if (stopped_.load(std::memory_order_acquire)) account_stranded(shard);
    }
  }
  return queued_total;
}

void DatagramPipeline::account_stranded(std::size_t shard) {
  // A submit observed stopped_ only after its push landed: the items may
  // have arrived after both the workers' and stop()'s sweeps, where they
  // would hold in_flight above zero forever. Clear the ring here instead.
  // The wires die rather than return to the pool -- pool lanes are
  // single-owner and the submitting thread owns none.
  Item item;
  Worker& wk = *workers_[shard % workers_.size()];
  while (ingress_[shard]->try_pop(item)) {
    wk.queued.fetch_sub(1, std::memory_order_relaxed);
    stats_.shutdown_discards.fetch_add(1, std::memory_order_relaxed);
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void DatagramPipeline::worker_loop(std::size_t w,
                                   const std::atomic<bool>& stop) {
  Worker& wk = *workers_[w];
  for (;;) {
    bool worked = false;
    for (const std::size_t shard : wk.shards) {
      for (;;) {
        wk.batch.clear();
        const std::size_t n =
            ingress_[shard]->pop_batch(wk.batch, config_.batch);
        if (n == 0) break;
        wk.queued.fetch_sub(static_cast<std::int64_t>(n),
                            std::memory_order_relaxed);
        worked = true;
        process_burst(wk);
        flush_results(wk);
        if (stop.load(std::memory_order_relaxed)) {
          discard_residual_ingress(wk);
          return;
        }
      }
    }
    if (stop.load(std::memory_order_relaxed)) {
      discard_residual_ingress(wk);
      return;
    }
    if (worked) continue;
    std::unique_lock<std::mutex> lock(wk.mu);
    wk.cv.wait(lock, [&] {
      return wk.queued.load(std::memory_order_relaxed) > 0 ||
             stop.load(std::memory_order_relaxed);
    });
  }
}

void DatagramPipeline::process_burst(Worker& wk) {
  const std::uint64_t t0 = thread_cpu_ns();
  const std::size_t n = wk.batch.size();
  wk.bodies.clear();
  wk.burst.clear();
  for (std::size_t i = 0; i < n; ++i) {
    wk.sources[i].assign_ipv4(wk.batch[i].header.source);
    wk.bodies.push_back(buffers_.acquire(wk.index));
  }
  // Descriptor pointers are taken only after every body is in place:
  // bodies/burst are reserved to config.batch, so no push reallocates.
  for (std::size_t i = 0; i < n; ++i) {
    ReceiveBurstItem it;
    it.source = &wk.sources[i];
    it.wire = wk.batch[i].wire;
    it.body_out = &wk.bodies[i];
    wk.burst.push_back(it);
  }
  endpoint_.unprotect_burst_into(wk.ctx, {wk.burst.data(), n});
  wk.busy_ns.fetch_add(thread_cpu_ns() - t0, std::memory_order_relaxed);

  for (std::size_t i = 0; i < n; ++i) {
    Item& item = wk.batch[i];
    util::Bytes& body = wk.bodies[i];
    if (const auto* err = std::get_if<ReceiveError>(&wk.burst[i].outcome)) {
      stats_.rejected.fetch_add(1, std::memory_order_relaxed);
      if (on_reject_) on_reject_(*err);
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      buffers_.release(wk.index, std::move(body));
      buffers_.release(wk.index, std::move(item.wire));
      continue;
    }
    stats_.accepted.fetch_add(1, std::memory_order_relaxed);
    Result r;
    r.header = item.header;
    r.body = std::move(body);
    wk.results.push_back(std::move(r));
    // The drained wire buffer goes back to this worker's pool lane: steady
    // state swaps one pooled body out for one consumed wire in, so the hot
    // path never touches the global allocator or another core's cache.
    buffers_.release(wk.index, std::move(item.wire));
  }
}

void DatagramPipeline::flush_results(Worker& wk) {
  if (wk.results.empty()) return;
  // One blocking push for the whole burst (work already paid for its
  // cryptography). Shutdown while the egress is full abandons the tail:
  // those results die with the pipeline, accounted so drain_all() callers
  // aren't left waiting.
  const std::size_t pushed = egress_.push_wait_batch(
      {wk.results.data(), wk.results.size()}, pool_.stop_flag());
  for (std::size_t i = pushed; i < wk.results.size(); ++i) {
    stats_.egress_dropped.fetch_add(1, std::memory_order_relaxed);
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    buffers_.release(wk.index, std::move(wk.results[i].body));
  }
  wk.results.clear();
}

void DatagramPipeline::discard_residual_ingress(Worker& wk) {
  // Stopping with queued work: pop-and-account everything this worker
  // owns so in_flight can reach zero (the drain_all livelock fix). The
  // items are discarded, not processed -- shutdown should not pay for
  // cryptography nobody will drain.
  Item item;
  for (const std::size_t shard : wk.shards) {
    while (ingress_[shard]->try_pop(item)) {
      wk.queued.fetch_sub(1, std::memory_order_relaxed);
      stats_.shutdown_discards.fetch_add(1, std::memory_order_relaxed);
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      buffers_.release(wk.index, std::move(item.wire));
    }
  }
}

std::size_t DatagramPipeline::drain(const Sink& sink) {
  std::size_t n = 0;
  for (;;) {
    drain_buf_.clear();
    if (egress_.pop_batch(drain_buf_, config_.batch) == 0) return n;
    for (Result& r : drain_buf_) {
      sink(r.header, std::move(r.body));
      stats_.drained.fetch_add(1, std::memory_order_relaxed);
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      ++n;
    }
  }
}

void DatagramPipeline::drain_all(const Sink& sink) {
  while (in_flight_.load(std::memory_order_acquire) > 0) {
    if (drain(sink) == 0) std::this_thread::yield();
  }
  drain(sink);
}

void DatagramPipeline::register_metrics(obs::MetricsRegistry& registry,
                                        const std::string& prefix) const {
  registry.add_source([prefix, this](obs::MetricsRegistry::Emitter& emit) {
    emit.counter(prefix + ".submitted", stats_.submitted);
    emit.counter(prefix + ".backpressure_drops", stats_.backpressure_drops);
    emit.counter(prefix + ".accepted", stats_.accepted);
    emit.counter(prefix + ".rejected", stats_.rejected);
    emit.counter(prefix + ".drained", stats_.drained);
    emit.counter(prefix + ".egress_dropped", stats_.egress_dropped);
    emit.counter(prefix + ".shutdown_discards", stats_.shutdown_discards);
    emit.counter(prefix + ".ingress_dropped", ingress_dropped());
    emit.gauge(prefix + ".workers", static_cast<double>(worker_count()));
    emit.gauge(prefix + ".in_flight", static_cast<double>(in_flight()));
    emit.gauge(prefix + ".busy_clock_is_thread_cputime",
               busy_clock() == "thread-cputime" ? 1.0 : 0.0);
    const util::BufferPool::Stats pool = buffers_.stats();
    emit.counter(prefix + ".pool.heap_fallbacks", pool.heap_fallbacks);
    emit.counter(prefix + ".pool.refills", pool.refills);
    emit.counter(prefix + ".pool.overflow_discards", pool.overflow_discards);
    emit.gauge(prefix + ".pool.high_water",
               static_cast<double>(pool.high_water));
    emit.gauge(prefix + ".pool.pooled", static_cast<double>(pool.pooled));
    for (std::size_t s = 0; s < ingress_.size(); ++s)
      emit.counter(
          prefix + ".ingress_dropped.shard" + std::to_string(s),
          ingress_[s]->dropped());
    for (std::size_t w = 0; w < workers_.size(); ++w)
      emit.counter(prefix + ".worker" + std::to_string(w) + ".busy_ns",
                   worker_busy_ns(w));
  });
}

}  // namespace fbs::core
