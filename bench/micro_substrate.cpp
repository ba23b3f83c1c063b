// Substrate microbenchmarks (google-benchmark): throughput of the building
// blocks the study runs on — event engine, disk service model, elevator,
// buffer cache, fs read, VM fault path, RNG, wavelet transform, oct-tree
// build/force, PPM step, and the ESST integrity layer (CRC-32, chunk
// decode against the framing check verify runs instead).
#include <benchmark/benchmark.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/nbody/octree.hpp"
#include "apps/ppm/euler2d.hpp"
#include "apps/wavelet/wavelet2d.hpp"
#include "block/buffer_cache.hpp"
#include "disk/drive.hpp"
#include "exec/thread_pool.hpp"
#include "fs/ext2lite.hpp"
#include "mm/vm.hpp"
#include "sim/engine.hpp"
#include "telemetry/crc32_impl.hpp"
#include "telemetry/esst.hpp"
#include "telemetry/esst_view.hpp"
#include "util/rng.hpp"

namespace {

using namespace ess;

/// The simulated stack below the fs: engine, disk, an untraced driver and
/// a default buffer cache.
struct Stack {
  sim::Engine engine;
  disk::Drive drive{engine, disk::ServiceModel(disk::beowulf_geometry(),
                                               disk::ServiceParams{})};
  driver::IdeDriver drv{drive, nullptr};
  block::BufferCache cache{drv, block::CacheConfig{}};
};

void BM_RngNextU64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(BM_RngNextU64);

void BM_EngineScheduleFire(benchmark::State& state) {
  sim::Engine engine;
  for (auto _ : state) {
    engine.schedule_after(1, [] {});
    engine.step();
  }
}
BENCHMARK(BM_EngineScheduleFire);

// Half the scheduled events are cancelled before they fire: the
// generation-stamp bookkeeping of cancel(), next to the fire path above.
void BM_EngineScheduleCancel(benchmark::State& state) {
  sim::Engine engine;
  for (auto _ : state) {
    const auto id = engine.schedule_after(1, [] {});
    engine.schedule_after(1, [] {});
    engine.cancel(id);
    engine.step();
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_EngineScheduleCancel);

void BM_DiskServiceTime(benchmark::State& state) {
  const disk::ServiceModel model(disk::beowulf_geometry(),
                                 disk::ServiceParams{});
  disk::Request req;
  req.sector = 500'000;
  req.sector_count = 8;
  std::uint64_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.service_time(req, t, 100));
    t += 1000;
  }
}
BENCHMARK(BM_DiskServiceTime);

void BM_DriveSubmitComplete(benchmark::State& state) {
  sim::Engine engine;
  disk::Drive drive(engine, disk::ServiceModel(disk::beowulf_geometry(),
                                               disk::ServiceParams{}));
  Rng rng(2);
  for (auto _ : state) {
    disk::Request req;
    req.sector = rng.uniform(1'000'000);
    req.sector_count = 2;
    req.dir = disk::Dir::kWrite;
    drive.submit(req);
    engine.run();
  }
}
BENCHMARK(BM_DriveSubmitComplete);

void BM_ElevatorPushPop(benchmark::State& state) {
  disk::ElevatorScheduler sched;
  Rng rng(3);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      disk::Request r;
      r.sector = rng.uniform(1'000'000);
      r.sector_count = 2;
      sched.push(r);
    }
    std::uint64_t head = 0;
    while (auto r = sched.pop(head)) head = r->sector;
    benchmark::DoNotOptimize(head);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_ElevatorPushPop)->Arg(16)->Arg(128);

void BM_BufferCacheHit(benchmark::State& state) {
  Stack s;
  s.cache.fetch(0, 64, [] {});
  s.engine.run();
  for (auto _ : state) {
    if (s.cache.fetch(0, 64, [] {})) state.SkipWithError("a hit waited");
  }
  state.SetBytesProcessed(state.iterations() * 64 * 1024);
}
BENCHMARK(BM_BufferCacheHit);

// Streaming reads over 4x the cache: every block misses, is inserted at
// the LRU front and, once the cache is full, evicts the LRU tail.
void BM_BufferCacheMissEvict(benchmark::State& state) {
  Stack s;
  const block::BlockNo span = 4 * s.cache.config().capacity_blocks;
  block::BlockNo b = 0;
  for (auto _ : state) {
    if (!s.cache.fetch(b, 4, [] {})) state.SkipWithError("a miss hit");
    s.engine.run();
    b = (b + 4) % span;
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_BufferCacheMissEvict);

// A resident 64 KB read through the fs of a file written in Arg appends,
// each followed by a 4 KB append to another file: Arg 1 leaves 2 runs (the
// indirect block splits the file), Arg 16 leaves 17.
void BM_FsRead(benchmark::State& state) {
  const auto appends = static_cast<std::uint64_t>(state.range(0));
  Stack s;
  fs::FsConfig fc;
  fc.total_blocks = 100'000;
  fs::Ext2Lite fsys(s.cache, fc);
  fsys.mkfs();
  const fs::Ino ino = fsys.create("/f");
  const fs::Ino other = fsys.create("/g");
  for (std::uint64_t i = 0; i < appends; ++i) {
    fsys.append(ino, 64 * 1024 / appends);
    fsys.append(other, 4096);
  }
  fsys.sync();
  s.engine.run();
  for (auto _ : state) {
    if (fsys.read(ino, 0, 64 * 1024, [] {})) {
      state.SkipWithError("a resident read waited");
    }
  }
  state.SetBytesProcessed(state.iterations() * 64 * 1024);
}
BENCHMARK(BM_FsRead)->Arg(1)->Arg(16);

// A cyclic touch set twice the frame pool: every touch faults and the
// clock evicts a victim. Arg 0 touches read-only (zero-fill, no I/O);
// arg 1 writes, so each fault also swaps a victim out and the page in.
void BM_VmFaultEvict(benchmark::State& state) {
  Stack s;
  constexpr std::uint32_t kFrames = 256;
  mm::FramePool frames(kFrames);
  mm::SwapManager swap(s.drv, 900'000, 4 * kFrames);
  mm::Vm vm(frames, swap, s.cache);
  vm.create_address_space(1, {mm::Segment{0, 2 * kFrames, false, 0}});
  const bool write = state.range(0) != 0;
  mm::VPage p = 0;
  for (auto _ : state) {
    vm.touch(1, p, write, [] {});
    if (write) s.engine.run();
    p = (p + 1) % (2 * kFrames);
  }
}
BENCHMARK(BM_VmFaultEvict)->Arg(0)->Arg(1);

void BM_VmResidentTouch(benchmark::State& state) {
  Stack s;
  mm::FramePool frames(256);
  mm::SwapManager swap(s.drv, 900'000, 1024);
  mm::Vm vm(frames, swap, s.cache);
  vm.create_address_space(1, {mm::Segment{0, 128, false, 0}});
  for (mm::VPage p = 0; p < 128; ++p) {
    vm.touch(1, p, true, [] {});
  }
  s.engine.run();
  mm::VPage p = 0;
  for (auto _ : state) {
    vm.touch(1, p, false, [] {});
    p = (p + 1) % 128;
  }
}
BENCHMARK(BM_VmResidentTouch);

void BM_WaveletForward2D(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const auto scene = apps::wavelet::synthetic_scene(n, 1);
  for (auto _ : state) {
    auto p = scene;
    benchmark::DoNotOptimize(
        apps::wavelet::forward2d(p, 4, apps::wavelet::Filter::kDaub4));
  }
  state.SetBytesProcessed(state.iterations() * n * n * 8);
}
BENCHMARK(BM_WaveletForward2D)->Arg(128)->Arg(512);

void BM_OctreeBuild(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  apps::nbody::NBodySim sim(n, 1);
  apps::nbody::Octree tree;
  for (auto _ : state) {
    tree.build(sim.bodies());
    benchmark::DoNotOptimize(tree.node_count());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_OctreeBuild)->Arg(1024)->Arg(8192);

// One whole force pass, as NBodySim::compute_forces runs it (serially):
// every body in groups of Octree::kGroupSize; items are bodies. The label
// names the kernel instance the pass dispatched to.
void BM_OctreeForcePass(benchmark::State& state) {
  constexpr std::size_t kBodies = 2048;
  apps::nbody::NBodySim sim(kBodies, 2);
  apps::nbody::Octree tree;
  tree.build(sim.bodies());
  auto bodies = sim.bodies();  // accelerate writes only acc
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.accelerate(bodies, 0, kBodies, 0.85, 0.05));
  }
  state.SetItemsProcessed(state.iterations() * kBodies);
  state.SetLabel(apps::nbody::kernel_name(apps::nbody::default_kernel()));
}
BENCHMARK(BM_OctreeForcePass);

// One step on the paper's 240x480 grid, serially (Arg 0) or with the
// sweeps' bands on a pool of Arg workers; items are cells.
void BM_PpmStep(benchmark::State& state) {
  constexpr int kNx = 240, kNy = 480;
  const auto workers = static_cast<std::size_t>(state.range(0));
  std::unique_ptr<exec::ThreadPool> pool;
  if (workers > 0) pool = std::make_unique<exec::ThreadPool>(workers);
  apps::ppm::PpmSolver solver(kNx, kNy, 1.0 / kNx, 1.0 / kNx, pool.get());
  solver.init_blast(0.1, 10.0, 0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.step(0.4));
  }
  state.SetItemsProcessed(state.iterations() * kNx * kNy);
}
BENCHMARK(BM_PpmStep)->Arg(0)->Arg(4)->UseRealTime();

// CRC-32 over Arg bytes of random data: a chunk-sized and a 64 KB buffer.
// The label names the implementation crc32() dispatched to.
void BM_Crc32(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> buf(len);
  Rng rng(32);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(telemetry::crc32(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(len));
  state.SetLabel(telemetry::crc::clmul_supported() ? "clmul" : "slicing8");
}
BENCHMARK(BM_Crc32)->Arg(4096)->Arg(64 * 1024);

/// One multi-node chunk of 4096 records shaped like a merged cluster
/// capture (interleaved nodes, jittered timestamps, hot and cold sectors).
telemetry::EsstView merged_chunk() {
  constexpr std::size_t kRecords = 4096;
  trace::TraceSet ts("micro", -1);
  Rng rng(71);
  for (std::size_t i = 0; i < kRecords; ++i) {
    trace::Record r;
    r.timestamp = static_cast<SimTime>(i) * 3 + rng.uniform(3);
    r.sector = rng.uniform(100) < 40
                   ? 4'000u * static_cast<std::uint32_t>(rng.uniform(64))
                   : 25u * static_cast<std::uint32_t>(rng.uniform(40'000));
    r.size_bytes = 1024u << rng.uniform(5);
    r.is_write = static_cast<std::uint8_t>(rng.uniform(3) != 0);
    r.outstanding = static_cast<std::uint16_t>(rng.uniform(8));
    r.node = static_cast<std::int32_t>(rng.uniform(256));
    ts.add(r);
  }
  telemetry::EsstMeta meta;
  meta.multi_node = true;
  meta.records_per_chunk = kRecords;
  std::ostringstream os;
  telemetry::write_esst(ts, os, meta);
  return telemetry::EsstView(util::MmapFile::from_bytes(os.str()));
}

// The read side's per-chunk integrity cost, two ways: decode_chunk (CRC,
// then every record decoded, as scan and merge read) and check_chunk (CRC,
// then the varint framing walk, as verify reads). Items are records,
// bytes the chunk's payload and framing.
void BM_ChunkDecode(benchmark::State& state) {
  const telemetry::EsstView view = merged_chunk();
  std::vector<trace::Record> recs;
  for (auto _ : state) {
    view.decode_chunk(0, recs);
    benchmark::DoNotOptimize(recs.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * view.chunks()[0].records);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(view.chunk_bytes(0)));
}
BENCHMARK(BM_ChunkDecode);

void BM_ChunkCheck(benchmark::State& state) {
  const telemetry::EsstView view = merged_chunk();
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.check_chunk(0));
  }
  state.SetItemsProcessed(state.iterations() * view.chunks()[0].records);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(view.chunk_bytes(0)));
}
BENCHMARK(BM_ChunkCheck);

}  // namespace

BENCHMARK_MAIN();
