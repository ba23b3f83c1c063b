#include "kernel/node_kernel.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>

namespace ess::kernel {

NodeKernel::NodeKernel(KernelConfig cfg, int node_id)
    : cfg_(cfg),
      node_id_(node_id),
      rng_(cfg.seed + static_cast<std::uint64_t>(node_id) * 0x9e3779b9),
      owned_engine_(std::make_unique<sim::Engine>()),
      engine_(*owned_engine_),
      ring_(cfg.trace_ring_capacity) {
  init();
}

NodeKernel::NodeKernel(sim::Engine& engine, KernelConfig cfg, int node_id)
    : cfg_(cfg),
      node_id_(node_id),
      rng_(cfg.seed + static_cast<std::uint64_t>(node_id) * 0x9e3779b9),
      engine_(engine),
      shared_engine_(true),
      ring_(cfg.trace_ring_capacity) {
  init();
}

void NodeKernel::init() {
  drive_ = std::make_unique<disk::Drive>(
      engine_, disk::ServiceModel(disk::beowulf_geometry(), cfg_.disk),
      cfg_.disk_scheduler);
  if (cfg_.fault.active()) {
    faults_ = std::make_unique<fault::FaultInjector>(cfg_.fault);
    drive_->set_fault_injector(faults_.get());
  }
  driver_ = std::make_unique<driver::IdeDriver>(*drive_, &ring_);
  driver_->set_retry_policy(cfg_.fault.driver);
  driver_->ioctl_set_trace_level(driver::TraceLevel::kOff);  // off until armed

  block::CacheConfig cc;
  cc.capacity_blocks = cfg_.buffer_cache_blocks;
  cc.max_coalesce_blocks = cfg_.max_coalesce_blocks;
  cache_ = std::make_unique<block::BufferCache>(*driver_, cc);

  fs::FsConfig fc;
  fc.total_blocks = cfg_.layout.fs_blocks;
  fc.atime_updates = cfg_.atime_updates;
  fc.readahead_ceiling_blocks = cfg_.readahead_ceiling_blocks;
  fs_ = std::make_unique<fs::Ext2Lite>(*cache_, fc);
  fs_->mkfs();

  // Swap-on-file, low on the disk (see DiskLayout).
  const fs::Ino swap_ino = fs_->create_contiguous(
      "/swapfile", cfg_.layout.swapfile_bytes, cfg_.layout.swapfile_goal_block);
  const auto swap_info = fs_->stat(swap_ino);
  const auto slot_count =
      static_cast<std::uint32_t>(cfg_.layout.swapfile_bytes / mm::kPageSize);
  swap_ = std::make_unique<mm::SwapManager>(
      *driver_, swap_info.first_block * block::kSectorsPerBlock, slot_count);

  const std::uint64_t user_bytes =
      cfg_.ram_bytes - cfg_.kernel_resident_bytes -
      std::uint64_t{cfg_.buffer_cache_blocks} * block::kBlockSize;
  frames_ = std::make_unique<mm::FramePool>(
      static_cast<std::uint32_t>(user_bytes / mm::kPageSize));
  vm_ = std::make_unique<mm::Vm>(*frames_, *swap_, *cache_);

  // System files at the layout's characteristic locations.
  syslog_ino_ = fs_->create("/var/log/messages", cfg_.layout.syslog_goal_block);
  utmp_ino_ = fs_->create("/var/run/utmp", cfg_.layout.utmp_goal_block);
  pacct_ino_ = fs_->create("/var/account/pacct", cfg_.layout.pacct_goal_block);
  trace_ino_ = fs_->create("/var/log/esstrace", cfg_.layout.trace_goal_block);
  klog_ino_ = fs_->create("/var/log/kern.log", cfg_.layout.klog_goal_block);

  // Settle setup I/O so experiments start from a clean cache. With a
  // shared engine, running to idle would spin peers' daemons forever; the
  // machine owner settles once instead.
  fs_->sync();
  if (!shared_engine_) engine_.run();

  start_daemons();
}

NodeKernel::~NodeKernel() = default;

fs::Ino NodeKernel::stage_input_file(const std::string& path,
                                     std::uint64_t size,
                                     std::uint64_t goal_block) {
  if (const auto existing = fs_->lookup(path)) return *existing;
  if (goal_block == 0) goal_block = cfg_.layout.image_region_block;
  return fs_->create_contiguous(path, size, goal_block, /*stride=*/1024);
}

void NodeKernel::stage(const workload::OpTrace& w) {
  if (w.image_bytes > 0) {
    stage_input_file("/bin/" + w.app_name, w.image_bytes);
    // The binaries are hot in the buffer cache from recent use (compile,
    // previous runs); a larger-than-cache image stays partially cold.
    warm_file("/bin/" + w.app_name, w.image_warm_fraction);
  }
  for (const auto& f : w.files) {
    if (!f.create && f.input_size > 0) {
      stage_input_file(f.path, f.input_size, f.goal_block);
    }
  }
}

void NodeKernel::ioctl_trace(driver::TraceLevel level) {
  driver_->ioctl_set_trace_level(level);
}

void NodeKernel::set_live_sink(telemetry::Sink* sink) {
  driver_->set_sink(sink);
}

void NodeKernel::warm_file(const std::string& path, double fraction) {
  const auto ino = fs_->lookup(path);
  if (!ino) throw std::runtime_error("warm_file: no such file: " + path);
  const auto bytes = static_cast<std::uint64_t>(
      static_cast<double>(fs_->size_of(*ino)) * std::clamp(fraction, 0.0, 1.0));
  if (bytes == 0) return;
  bool done = false;
  if (!fs_->read(*ino, 0, bytes, [&done] { done = true; })) return;
  while (!done) {
    if (!engine_.step()) {
      throw std::logic_error("warm_file: read never completed");
    }
  }
}

mm::Pid NodeKernel::spawn(workload::OpTrace trace) {
  const mm::Pid pid = spawn_deferred(std::move(trace));
  make_ready(pid);
  return pid;
}

mm::Pid NodeKernel::spawn_deferred(workload::OpTrace trace) {
  const mm::Pid pid = next_pid_++;
  auto proc = std::make_unique<Process>();
  proc->pid = pid;
  proc->spawn_time = engine_.now();

  // Stage (or share) the program image.
  std::uint64_t image_first_block = 0;
  if (trace.image_bytes > 0) {
    const fs::Ino img =
        stage_input_file("/bin/" + trace.app_name, trace.image_bytes);
    image_first_block = fs_->stat(img).first_block;
  }

  // Resolve the file table.
  for (const auto& decl : trace.files) {
    const auto existing = fs_->lookup(decl.path);
    if (!existing && !decl.create) {
      throw std::runtime_error("spawn: input not staged: " + decl.path);
    }
    proc->files.push_back(existing ? *existing
                                   : fs_->create(decl.path, decl.goal_block));
  }

  // Build the address space: image pages first, then anonymous.
  std::vector<mm::Segment> segs;
  if (trace.image_pages() > 0) {
    segs.push_back(mm::Segment{0, trace.image_pages(), true,
                               image_first_block});
  }
  if (trace.anon_pages() > 0) {
    segs.push_back(
        mm::Segment{trace.image_pages(), trace.anon_pages(), false, 0});
  }
  vm_->create_address_space(pid, std::move(segs));

  proc->trace = std::move(trace);
  procs_.push_back(std::move(proc));
  return pid;
}

void NodeKernel::run_for(SimTime d) { engine_.run_until(engine_.now() + d); }

bool NodeKernel::all_done() const {
  return std::all_of(procs_.begin(), procs_.end(),
                     [](const auto& p) { return p->done(); });
}

bool NodeKernel::run_until_done(SimTime max_time) {
  while (!all_done() && engine_.now() < max_time) {
    if (!engine_.step()) {
      throw std::logic_error("NodeKernel: deadlock — processes pending but "
                             "no events scheduled");
    }
  }
  return all_done();
}

trace::TraceSet NodeKernel::collect_trace(const std::string& experiment) {
  force_trace_drain();  // final drain, bypassing any injected daemon stall
  while (ring_.size() > 0) force_trace_drain();
  // The capture is complete: let the drain-side consumer (typically an ESST
  // file writer) flush its open chunk and write its index — with the ring's
  // overflow tally first, so a lossy capture is recorded as lossy.
  if (drain_sink_ != nullptr) {
    if (ring_.dropped() > 0) drain_sink_->on_drops(ring_.dropped());
    drain_sink_->on_finish(engine_.now());
  }
  trace::TraceSet ts(experiment, node_id_);
  ts.add_all(capture_);
  ts.set_duration(engine_.now());
  ts.sort_by_time();
  return ts;
}

std::vector<mm::Pid> NodeKernel::pids() const {
  std::vector<mm::Pid> out(procs_.size());
  std::iota(out.begin(), out.end(), mm::Pid{1});
  return out;
}

// ---------------------------------------------------------------- scheduling

void NodeKernel::make_ready(mm::Pid pid) {
  Process& p = proc(pid);
  p.state = ProcState::kReady;
  run_queue_.push_back(pid);
  if (!cpu_busy_) dispatch();
}

void NodeKernel::release_cpu() { cpu_busy_ = false; }

void NodeKernel::dispatch() {
  if (cpu_busy_ || run_queue_.empty()) return;
  const mm::Pid pid = run_queue_.front();
  run_queue_.pop_front();
  Process& p = proc(pid);
  p.state = ProcState::kRunning;
  cpu_busy_ = true;
  continue_process(pid, cfg_.quantum);
}

void NodeKernel::block_process(Process& p) {
  p.state = ProcState::kBlocked;
  p.blocked_since = engine_.now();
  release_cpu();
  dispatch();
}

void NodeKernel::resume_process(mm::Pid pid, SimTime extra_charge) {
  Process& p = proc(pid);
  p.stats.blocked_time += engine_.now() - p.blocked_since;
  p.pending_charge += extra_charge;  // kernel time for the fault/syscall
  make_ready(pid);
}

void NodeKernel::finish_process(Process& p) {
  p.state = ProcState::kDone;
  p.finish_time = engine_.now();
  vm_->destroy_address_space(p.pid);
  release_cpu();
  dispatch();
}

void NodeKernel::run_cpu_slice(mm::Pid pid, SimTime budget, bool charge_pool) {
  Process& p = proc(pid);
  const SimTime pool = charge_pool ? p.pending_charge : p.compute_remaining;
  const SimTime slice = std::min(budget, pool);
  engine_.schedule_after(slice, [this, pid, slice, budget, charge_pool] {
    Process& q = proc(pid);
    SimTime& qpool = charge_pool ? q.pending_charge : q.compute_remaining;
    qpool -= slice;
    q.stats.cpu_time += slice;
    if (qpool == 0 && !charge_pool) ++q.op_index;  // ComputeOp finished
    const SimTime left = budget - slice;
    if (left == 0) {
      // Quantum expired: round-robin requeue.
      q.state = ProcState::kReady;
      run_queue_.push_back(pid);
      release_cpu();
      dispatch();
    } else {
      continue_process(pid, left);
    }
  });
}

bool NodeKernel::exec_touch(Process& p, workload::TouchOp& op) {
  const mm::Pid pid = p.pid;
  while (p.touch_index < op.pages.size()) {
    const auto& acc = op.pages[p.touch_index];
    const auto kind = vm_->touch(pid, acc.vpage, acc.write, [this, pid] {
      ++proc(pid).touch_index;
      resume_process(pid, cfg_.major_fault_cost);
    });
    if (!kind) {
      // Major fault in flight: the process sleeps on the page.
      block_process(p);
      return true;
    }
    if (*kind == mm::FaultKind::kMinor) {
      p.pending_charge += cfg_.minor_fault_cost;
    }
    ++p.touch_index;
  }
  p.touch_index = 0;
  ++p.op_index;
  return false;  // op finished without blocking; caller continues
}

SimTime NodeKernel::copy_cost(std::uint64_t bytes) const {
  return cfg_.syscall_base_cost +
         static_cast<SimTime>(static_cast<double>(bytes) /
                              (cfg_.copy_mb_per_s * 1e6) * 1e6);
}

bool NodeKernel::exec_read(Process& p, const workload::ReadOp& op) {
  const mm::Pid pid = p.pid;
  ++p.stats.syscalls;
  ++p.stats.reads;
  p.pending_charge += copy_cost(op.len);
  const fs::Ino ino = p.files.at(op.file);

  if (!fs_->read(ino, op.offset, op.len, [this, pid] {
        ++proc(pid).op_index;
        resume_process(pid, 0);
      })) {
    ++p.op_index;
    return false;
  }
  block_process(p);
  return true;
}

void NodeKernel::exec_write(Process& p, const workload::WriteOp& op) {
  ++p.stats.syscalls;
  ++p.stats.writes;
  p.pending_charge += copy_cost(op.len);
  const fs::Ino ino = p.files.at(op.file);
  const std::uint64_t off =
      op.offset == workload::kAppend ? fs_->size_of(ino) : op.offset;
  fs_->write(ino, off, op.len);
  ++p.op_index;
}

void NodeKernel::exec_scratch_create(Process& p,
                                     const workload::ScratchCreateOp& op) {
  ++p.stats.syscalls;
  // A per-process suffix keeps concurrent instances from colliding.
  const std::string path = op.path + "." + std::to_string(p.pid);
  const fs::Ino ino = fs_->lookup(path) ? *fs_->lookup(path)
                                        : fs_->create(path);
  if (op.bytes > 0) {
    fs_->write(ino, 0, op.bytes);
    p.pending_charge += copy_cost(op.bytes);
  } else {
    p.pending_charge += cfg_.syscall_base_cost;
  }
  ++p.op_index;
}

void NodeKernel::exec_unlink(Process& p, const workload::UnlinkOp& op) {
  ++p.stats.syscalls;
  const std::string path = op.path + "." + std::to_string(p.pid);
  if (fs_->lookup(path)) fs_->unlink(path);
  p.pending_charge += cfg_.syscall_base_cost;
  ++p.op_index;
}

void NodeKernel::exec_send(Process& p, const workload::SendOp& op) {
  if (fabric_ == nullptr || p.rank < 0) {
    throw std::logic_error("SendOp without a fabric/rank");
  }
  ++p.stats.syscalls;
  p.pending_charge += copy_cost(op.bytes);  // pvm_pack + send
  fabric_->send(p.rank, op.dst_rank, op.bytes, op.tag);
  ++p.op_index;
}

bool NodeKernel::exec_recv(Process& p, const workload::RecvOp& op) {
  if (fabric_ == nullptr || p.rank < 0) {
    throw std::logic_error("RecvOp without a fabric/rank");
  }
  ++p.stats.syscalls;
  if (fabric_->try_recv(p.rank, op.src_rank, op.tag)) {
    p.pending_charge += cfg_.syscall_base_cost;  // unpack
    ++p.op_index;
    return false;
  }
  // Block until the fabric resumes us; the op completes on wakeup.
  ++p.op_index;  // the resume continues after this op
  fabric_->wait_recv(p.rank, op.src_rank, op.tag);
  block_process(p);
  return true;
}

bool NodeKernel::exec_barrier(Process& p, const workload::BarrierOp& op) {
  if (fabric_ == nullptr || p.rank < 0) {
    throw std::logic_error("BarrierOp without a fabric/rank");
  }
  ++p.stats.syscalls;
  ++p.op_index;  // completes either inline or on release
  if (fabric_->enter_barrier(p.rank, op.group, op.participants)) {
    p.pending_charge += cfg_.syscall_base_cost;
    return false;
  }
  block_process(p);
  return true;
}

void NodeKernel::continue_process(mm::Pid pid, SimTime budget) {
  Process& p = proc(pid);
  for (;;) {
    // Burn any pending kernel-time charge (fault handling, copies) first.
    if (p.pending_charge > 0) {
      run_cpu_slice(pid, budget, /*charge_pool=*/true);
      return;
    }
    if (p.op_index >= p.trace.ops.size()) {
      finish_process(p);
      return;
    }
    auto& op = p.trace.ops[p.op_index];
    if (auto* c = std::get_if<workload::ComputeOp>(&op)) {
      if (p.compute_remaining == 0) p.compute_remaining = c->duration;
      run_cpu_slice(pid, budget, /*charge_pool=*/false);
      return;
    }
    if (auto* t = std::get_if<workload::TouchOp>(&op)) {
      if (exec_touch(p, *t)) return;  // blocked
      continue;
    }
    if (auto* r = std::get_if<workload::ReadOp>(&op)) {
      if (exec_read(p, *r)) return;  // blocked
      continue;
    }
    if (auto* w = std::get_if<workload::WriteOp>(&op)) {
      exec_write(p, *w);
      continue;
    }
    if (auto* sc = std::get_if<workload::ScratchCreateOp>(&op)) {
      exec_scratch_create(p, *sc);
      continue;
    }
    if (auto* u = std::get_if<workload::UnlinkOp>(&op)) {
      exec_unlink(p, *u);
      continue;
    }
    if (auto* snd = std::get_if<workload::SendOp>(&op)) {
      exec_send(p, *snd);
      continue;
    }
    if (auto* rcv = std::get_if<workload::RecvOp>(&op)) {
      if (exec_recv(p, *rcv)) return;  // blocked on the fabric
      continue;
    }
    if (auto* bar = std::get_if<workload::BarrierOp>(&op)) {
      if (exec_barrier(p, *bar)) return;  // blocked on the barrier
      continue;
    }
    throw std::logic_error("unknown op variant");
  }
}

}  // namespace ess::kernel
