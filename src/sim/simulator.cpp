#include "sim/simulator.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <cxxabi.h>

#include "util/log.h"

// Sanitizer fiber annotations: compiled in only when the build instruments
// for ASan or TSan (gcc spells the test __SANITIZE_*__, clang __has_feature).
#if defined(__SANITIZE_ADDRESS__)
#define MG_SIM_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define MG_SIM_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MG_SIM_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define MG_SIM_TSAN 1
#endif
#endif
#ifdef MG_SIM_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef MG_SIM_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace mg::sim {

// ---------------------------------------------------------------------------
// Process: a ucontext fiber on its own mmap'd stack.
//
// Exactly one side runs at a time, so a process needs no thread of its own:
// whoever resumes it (the kernel, or a process whose slice kills it)
// swapcontext()s into the fiber, and the fiber swapcontext()s back. Each
// process saves its own caller context, so a kill issued from inside another
// process's slice nests: the killer is the victim's caller for that slice.
//
// The stack is kStackBytes of MAP_NORESERVE memory above one PROT_NONE guard
// page: pages never touched cost no RSS, and an overflow faults at the guard
// instead of writing into a neighbouring mapping.
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kStackBytes = std::size_t{1} << 20;

// The C++ runtime keeps the stack of exceptions being handled and the
// uncaught-exception count per thread (__cxa_eh_globals, Itanium C++ ABI).
// Fibers share the thread, so a process that blocks inside a catch handler
// (vmpi's connect retry does) would otherwise resume with another process's
// exceptions on that stack, and its `throw;`, std::current_exception() and
// end-of-handler cleanup would act on the wrong exception. Each fiber keeps
// its own copy, exchanged with the thread's around every slice.
struct EhGlobals {
  void* caught_exceptions = nullptr;
  unsigned int uncaught_exceptions = 0;
};

void swapEhGlobals(EhGlobals& saved) {
  void* live = abi::__cxa_get_globals();
  EhGlobals tmp;
  std::memcpy(&tmp, live, sizeof tmp);
  std::memcpy(live, &saved, sizeof saved);
  saved = tmp;
}

}  // namespace

struct Process::Impl {
  ucontext_t fiber{};   // the process's context while it is switched out
  ucontext_t caller{};  // the context that resumed it, while it runs
  EhGlobals eh;         // the switched-out side's exception-handling state
  char* map = nullptr;  // guard page, then the stack
  std::size_t map_bytes = 0;
  bool started = false;
#ifdef MG_SIM_ASAN
  void* caller_fake_stack = nullptr;
  void* fiber_fake_stack = nullptr;
  const void* caller_stack = nullptr;
  std::size_t caller_stack_bytes = 0;
#endif
#ifdef MG_SIM_TSAN
  void* tsan_fiber = __tsan_create_fiber(0);
  void* tsan_caller = nullptr;
#endif

  Impl() = default;
  Impl(const Impl&) = delete;
  Impl& operator=(const Impl&) = delete;
  ~Impl() {
    releaseStack();
#ifdef MG_SIM_TSAN
    __tsan_destroy_fiber(tsan_fiber);
#endif
  }

  void releaseStack() {
    if (map == nullptr) return;
#ifdef MG_SIM_ASAN
    // The fiber's last frames never returned; clear their redzones so a later
    // mapping at this address does not inherit them.
    ASAN_UNPOISON_MEMORY_REGION(map, map_bytes);
#endif
    ::munmap(map, map_bytes);
    map = nullptr;
  }
};

Process::Process(Simulator& sim, std::uint64_t id, std::string name, std::function<void()> body)
    : sim_(sim), id_(id), name_(std::move(name)), body_(std::move(body)), impl_(std::make_unique<Impl>()) {
  Impl& f = *impl_;
  const std::size_t guard = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  // On failure ~Impl unmaps whatever was mapped.
  auto fail = [&](const char* call) {
    const int err = errno;
    throw Error("spawn '" + name_ + "': cannot map its " + std::to_string(kStackBytes >> 10) +
                " KiB fiber stack + guard page (" + call + ": " + std::strerror(err) + ")");
  };
  void* map = ::mmap(nullptr, guard + kStackBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  if (map == MAP_FAILED) fail("mmap");
  f.map = static_cast<char*>(map);
  f.map_bytes = guard + kStackBytes;
  if (::mprotect(f.map, guard, PROT_NONE) != 0) fail("mprotect");
  if (::getcontext(&f.fiber) != 0) fail("getcontext");
  f.fiber.uc_stack.ss_sp = f.map + guard;
  f.fiber.uc_stack.ss_size = kStackBytes;
  f.fiber.uc_link = nullptr;  // fiberMain never returns; it setcontext()s out
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  ::makecontext(&f.fiber, reinterpret_cast<void (*)()>(&Process::fiberMain), 2,
                static_cast<unsigned int>(self >> 32), static_cast<unsigned int>(self));
}

Process::~Process() = default;

void Process::fiberMain(unsigned int self_hi, unsigned int self_lo) {
  auto* self = reinterpret_cast<Process*>((static_cast<std::uintptr_t>(self_hi) << 32) | self_lo);
  Impl& f = *self->impl_;
#ifdef MG_SIM_ASAN
  __sanitizer_finish_switch_fiber(nullptr, &f.caller_stack, &f.caller_stack_bytes);
#endif
  try {
    self->body_();
  } catch (const ProcessKilled&) {
    // Normal teardown path: the unwind ran the body's destructors here.
  } catch (const std::exception& e) {
    MG_LOG_ERROR("sim") << "process '" << self->name_ << "' died with exception: " << e.what();
  }
  self->finished_ = true;
  // Leave for good: nothing on this frame needs destroying, and the caller
  // unmaps the stack once it is back.
#ifdef MG_SIM_ASAN
  __sanitizer_start_switch_fiber(nullptr, f.caller_stack, f.caller_stack_bytes);
#endif
#ifdef MG_SIM_TSAN
  __tsan_switch_to_fiber(f.tsan_caller, 0);
#endif
  ::setcontext(&f.caller);
}

void Process::resumeFromKernel() {
  Impl& f = *impl_;
  if (!f.started) {
    if (kill_) {  // killed before its first slice: there is nothing to unwind
      finished_ = true;
      f.releaseStack();
      return;
    }
    f.started = true;
  }
  swapEhGlobals(f.eh);
#ifdef MG_SIM_ASAN
  __sanitizer_start_switch_fiber(&f.caller_fake_stack, f.map + (f.map_bytes - kStackBytes),
                                 kStackBytes);
#endif
#ifdef MG_SIM_TSAN
  f.tsan_caller = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(f.tsan_fiber, 0);
#endif
  ::swapcontext(&f.caller, &f.fiber);
#ifdef MG_SIM_ASAN
  __sanitizer_finish_switch_fiber(f.caller_fake_stack, nullptr, nullptr);
#endif
  swapEhGlobals(f.eh);
  if (finished_) f.releaseStack();
}

void Process::yieldToKernel() {
  Impl& f = *impl_;
#ifdef MG_SIM_ASAN
  __sanitizer_start_switch_fiber(&f.fiber_fake_stack, f.caller_stack, f.caller_stack_bytes);
#endif
#ifdef MG_SIM_TSAN
  __tsan_switch_to_fiber(f.tsan_caller, 0);
#endif
  ::swapcontext(&f.fiber, &f.caller);
#ifdef MG_SIM_ASAN
  __sanitizer_finish_switch_fiber(f.fiber_fake_stack, &f.caller_stack, &f.caller_stack_bytes);
#endif
  if (kill_) throw ProcessKilled{};
}

// ---------------------------------------------------------------------------
// EventQueue: slab arena + 4-ary min-heap (see the header comment).
// ---------------------------------------------------------------------------

namespace detail {

void EventQueue::placeEntry(std::size_t pos, const HeapEntry& e) {
  heap[pos] = e;
  meta[e.slot].heap_pos = static_cast<std::int32_t>(pos);
}

void EventQueue::siftUp(std::size_t pos, const HeapEntry& e) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!entryBefore(e, heap[parent])) break;
    placeEntry(pos, heap[parent]);
    pos = parent;
  }
  placeEntry(pos, e);
}

void EventQueue::siftDown(std::size_t pos, const HeapEntry& e) {
  const std::size_t n = heap.size();
  for (;;) {
    const std::size_t first = 4 * pos + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (entryBefore(heap[c], heap[best])) best = c;
    }
    if (!entryBefore(heap[best], e)) break;
    placeEntry(pos, heap[best]);
    pos = best;
  }
  placeEntry(pos, e);
}

void EventQueue::heapPush(const HeapEntry& e) {
  heap.push_back(e);  // placeholder; siftUp writes the final position
  siftUp(heap.size() - 1, e);
}

void EventQueue::heapRemoveAt(std::int32_t pos) {
  const std::size_t p = static_cast<std::size_t>(pos);
  const HeapEntry moved = heap.back();
  heap.pop_back();
  if (p == heap.size()) return;  // removed the tail
  if (p > 0 && entryBefore(moved, heap[(p - 1) / 4])) {
    siftUp(p, moved);
  } else {
    siftDown(p, moved);
  }
}

std::uint32_t EventQueue::allocSlot() {
  if (!free_slots.empty()) {
    const std::uint32_t slot = free_slots.back();
    free_slots.pop_back();
    return slot;
  }
  slab.emplace_back();
  meta.emplace_back();
  slot_span.push_back(0);
  return static_cast<std::uint32_t>(slab.size() - 1);
}

void EventQueue::freeSlot(std::uint32_t slot) {
  SlotMeta& m = meta[slot];
  if (++m.generation == 0) m.generation = 1;  // keep ids nonzero on wrap
  m.heap_pos = -1;
  free_slots.push_back(slot);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------------

namespace {
// Compact processes_ once this many finished Process objects accumulate.
constexpr int kProcessReapThreshold = 16;
}  // namespace

Simulator::Simulator() {
  owns_log_time_source_ = util::setLogSimTimeSource([this] { return now(); });
  spans_.setTimeSource([this] { return now(); });
}

Simulator::~Simulator() {
  shutdown();
  if (owns_log_time_source_) util::clearLogSimTimeSource();
}

// ----------------------------------------------------------- scheduling ---

EventId Simulator::scheduleAt(SimTime t, EventFn fn) {
  if (t < queue_.now) throw UsageError("scheduleAt in the past");
  if (fn.onHeap()) eventfn_heap_fallbacks_.inc();
  const std::uint32_t slot = queue_.allocSlot();
  if (slot >= kMaxSlots) throw UsageError("event arena exhausted (2^26 slots)");
  queue_.slab[slot] = std::move(fn);
  // Unconditional store: when tracing is off the context is pinned at 0, and
  // one 8-byte write is cheaper than a mispredictable branch here.
  queue_.slot_span[slot] = spans_.current();
  queue_.heapPush(detail::EventQueue::HeapEntry{t, queue_.next_seq++, slot});
  return makeId(slot, queue_.meta[slot].generation);
}

EventId Simulator::scheduleAfter(SimTime delay, EventFn fn) {
  if (delay < 0) throw UsageError("negative delay");
  return scheduleAt(queue_.now + delay, std::move(fn));
}

void Simulator::cancel(EventId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id);
  const std::uint32_t generation = static_cast<std::uint32_t>(id >> 32);
  detail::EventQueue& q = queue_;
  if (slot >= q.slab.size()) return;
  detail::EventQueue::SlotMeta& m = q.meta[slot];
  if (m.generation != generation || m.heap_pos < 0) return;
  q.slab[slot] = EventFn();  // run capture destructors now, not at some later pop
  q.heapRemoveAt(m.heap_pos);
  q.freeSlot(slot);
}

void Simulator::dispatchTop() {
  detail::EventQueue& q = queue_;
  const std::uint32_t slot = q.heap.front().slot;
  q.now = q.heap.front().time;
  // Move the body out before freeing: the body may schedule (growing the
  // slab) or cancel, and its slot must be reusable while it runs.
  EventFn fn = std::move(q.slab[slot]);
  const std::uint64_t ctx = q.slot_span[slot];
  q.heapRemoveAt(0);
  q.freeSlot(slot);
  events_executed_.inc();
  if (pulse_.enabled()) pulse_.beat(q.now, static_cast<std::int64_t>(q.heap.size()));
  if (spans_.enabled()) {
    // Events run in the span context of whoever scheduled them.
    const obs::SpanId prev = spans_.current();
    spans_.setCurrent(ctx);
    fn();
    spans_.setCurrent(prev);
  } else {
    fn();
  }
}

// ---------------------------------------------------------------- running ---

SimTime Simulator::runLoop(SimTime limit, bool bounded) {
  detail::EventQueue& q = queue_;
  while (!q.heap.empty() && (!bounded || q.heap.front().time <= limit)) {
    reapIfNeeded();
    dispatchTop();
  }
  if (bounded) q.now = limit;
  return q.now;
}

SimTime Simulator::run() { return runLoop(0, /*bounded=*/false); }

void Simulator::runUntil(SimTime t) {
  if (t < queue_.now) throw UsageError("runUntil in the past");
  runLoop(t, /*bounded=*/true);
}

void Simulator::inspect(obs::Inspector& in) const {
  in.total("sim.events_per_s", static_cast<double>(events_executed_.value()));
  in.level("sim.pending_events", static_cast<double>(pendingEventCount()));
  in.level("sim.arena_slots", static_cast<double>(eventArenaSlots()));
  if (!in.wantsFields()) return;
  in.key("sim");
  in.i64("now", queue_.now);
  in.u64("next_seq", queue_.next_seq);
  in.u64("pending", queue_.heap.size());
  // The heap is only partially ordered; sort a copy of the ordering keys so
  // the digest does not depend on the internal layout (which varies with the
  // cancel history even between equivalent states).
  std::vector<detail::EventQueue::HeapEntry> entries = queue_.heap;
  std::sort(entries.begin(), entries.end(), detail::EventQueue::entryBefore);
  for (const auto& e : entries) {
    in.i64("ev.t", e.time);
    in.u64("ev.seq", e.seq);
  }
  std::vector<const Process*> procs;
  procs.reserve(live_processes_.size());
  for (const auto& [id, p] : live_processes_) procs.push_back(p);
  std::sort(procs.begin(), procs.end(),
            [](const Process* a, const Process* b) { return a->id_ < b->id_; });
  in.u64("sim.live_processes", procs.size());
  for (const Process* p : procs) {
    in.u64("proc.id", p->id_);
    in.str("proc.name", p->name_);
    in.boolean("proc.suspended", p->suspended_);
    in.boolean("proc.wake_pending", p->wake_pending_);
    in.u64("proc.wait_epoch", p->wait_epoch_);
  }
  // The metrics snapshot is already canonical (sorted names, round-trip
  // doubles), so its JSON carries every layer's counts into the digest.
  in.str("obs.metrics", metrics_.snapshotJson());
}

// ------------------------------------------------------------- processes ---

Process& Simulator::spawn(std::string name, std::function<void()> body) {
  if (shutting_down_) throw UsageError("spawn during shutdown");
  // Not make_unique: the constructor is private and Simulator is a friend.
  std::unique_ptr<Process> proc(new Process(*this, next_process_id_++, std::move(name), std::move(body)));
  Process& ref = *proc;
  ref.span_ctx_ = spans_.current();  // children start in the spawner's span
  processes_.push_back(std::move(proc));
  live_processes_.emplace(ref.id(), &ref);
  processes_spawned_.inc();
  scheduleResume(ref);
  return ref;
}

EventId Simulator::scheduleSliceAt(Process& p, SimTime t) {
  return scheduleAt(t, [this, proc = &p] {
    proc->resume_event_ = 0;
    proc->wake_pending_ = false;
    runProcessSlice(*proc);
  });
}

void Simulator::scheduleResume(Process& p) {
  p.wake_pending_ = true;
  p.resume_event_ = scheduleSliceAt(p, queue_.now);
}

void Simulator::runProcessSlice(Process& p) {
  if (p.finished_) return;
  Process* prev = current_;
  current_ = &p;
  p.suspended_ = false;
  if (spans_.enabled()) {
    // Swap in the process's saved span context for the slice: the process
    // resumes inside the span it blocked in, not in the waker's span.
    const obs::SpanId prev_span = spans_.current();
    spans_.setCurrent(p.span_ctx_);
    p.resumeFromKernel();
    p.span_ctx_ = spans_.current();
    spans_.setCurrent(prev_span);
  } else {
    p.resumeFromKernel();
  }
  current_ = prev;
  if (p.finished_) {
    // Exactly once per process: the slice that returned finished.
    live_processes_.erase(p.id_);
    ++finished_unreaped_;
  }
}

void Simulator::reapIfNeeded() {
  if (finished_unreaped_ >= kProcessReapThreshold) reapFinishedProcesses();
}

void Simulator::reapFinishedProcesses() {
  // Safe point only: called from the run loop between events, when no
  // process is mid-slice.
  // Finished processes have had their stacks unmapped (resumeFromKernel
  // does so on the finishing switch), so destruction is cheap. Live Process
  // objects keep their addresses (unique_ptr).
  //
  // A process killed with a queued resume (a wake raced the kill) or a
  // pending suspendFor timeout (the unwind skipped the post-yield cancel)
  // is NOT reaped yet: those events captured this Process and fire as
  // no-ops, exactly as they did before reaping existed — freeing under them
  // would dangle, and cancelling them would perturb deterministic event
  // counts. The process is collected on a later pass, once they drain.
  std::erase_if(processes_, [](const std::unique_ptr<Process>& p) {
    return p->finished_ && p->timeout_event_ == 0 && p->resume_event_ == 0;
  });
  // Count newly-finished processes from zero again; stragglers with pending
  // events are retried on the next threshold crossing (or at shutdown),
  // keeping this amortized O(1) per event.
  finished_unreaped_ = 0;
}

void Simulator::shutdown() {
  shutting_down_ = true;
  // Kill in creation order; each killed process unwinds synchronously.
  for (auto& p : processes_) {
    if (!p->finished_) {
      p->kill_ = true;
      process_kills_.inc();
      runProcessSlice(*p);
    }
  }
  processes_.clear();
  live_processes_.clear();
  finished_unreaped_ = 0;
  shutting_down_ = false;
}

void Simulator::killProcess(Process& p) {
  if (p.finished_) return;
  if (current_ == &p) throw UsageError("a process cannot kill itself");
  p.kill_ = true;
  process_kills_.inc();
  runProcessSlice(p);
}

void Simulator::killProcessById(std::uint64_t id) {
  const auto it = live_processes_.find(id);
  if (it == live_processes_.end()) return;  // finished (possibly reaped)
  killProcess(*it->second);
}

bool Simulator::processFinished(std::uint64_t id) const {
  return live_processes_.find(id) == live_processes_.end();
}

void Simulator::delay(SimTime d) {
  if (d < 0) throw UsageError("negative delay");
  Process& p = currentProcess();
  p.resume_event_ = scheduleSliceAt(p, queue_.now + d);
  p.wake_pending_ = true;
  p.suspended_ = true;
  p.yieldToKernel();
}

void Simulator::suspend() {
  Process& p = currentProcess();
  ++p.wait_epoch_;
  p.suspended_ = true;
  p.timed_out_ = false;
  p.yieldToKernel();
}

bool Simulator::suspendFor(SimTime timeout) {
  if (timeout < 0) throw UsageError("negative timeout");
  Process& p = currentProcess();
  const std::uint64_t epoch = ++p.wait_epoch_;
  p.suspended_ = true;
  p.timed_out_ = false;
  p.timeout_event_ = scheduleAt(queue_.now + timeout, [this, proc = &p, epoch] {
    // Stale if the process was woken (epoch bumped) or already running.
    if (proc->wait_epoch_ != epoch || !proc->suspended_) return;
    proc->timeout_event_ = 0;
    proc->timed_out_ = true;
    proc->wake_pending_ = false;
    runProcessSlice(*proc);
  });
  p.yieldToKernel();
  if (p.timeout_event_ != 0) {
    cancel(p.timeout_event_);
    p.timeout_event_ = 0;
  }
  return !p.timed_out_;
}

Process& Simulator::currentProcess() {
  if (!current_) throw UsageError("blocking call outside process context");
  return *current_;
}

void Simulator::wake(Process& p) {
  if (p.finished_ || !p.suspended_ || p.wake_pending_) return;
  process_wakes_.inc();
  ++p.wait_epoch_;  // invalidate any pending suspendFor timeout
  if (p.timeout_event_ != 0) {
    cancel(p.timeout_event_);
    p.timeout_event_ = 0;
  }
  scheduleResume(p);
}

std::vector<std::string> Simulator::suspendedProcessNames() const {
  std::vector<std::string> names;
  for (const auto& p : processes_) {
    if (!p->finished_ && p->suspended_) names.push_back(p->name());
  }
  return names;
}

}  // namespace mg::sim
