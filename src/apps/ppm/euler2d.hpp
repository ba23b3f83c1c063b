// 2-D compressible Euler solver with PPM (piecewise parabolic method)
// reconstruction — the astrophysics workload of the paper [Fryxell & Taam
// 1988 lineage]: Euler's equations for compressible gas dynamics on a
// structured, logically rectangular grid.
//
// Scheme: Strang-split 1-D sweeps; per sweep, primitive variables are
// reconstructed with monotonized parabolae (Colella–Woodward limiter),
// interface states are resolved with an HLL Riemann solver, and conserved
// variables are updated in flux form. This is a real solver (it propagates
// a blast wave correctly and conserves mass/energy to round-off in closed
// boxes); the simulator uses both its results and its operation counts.
//
// Each row of the X sweep reads and writes only its own row, and each
// column of the Y sweep only its own column, so a sweep runs in
// kSweepBands fixed bands of rows (columns) on an optional
// exec::ThreadPool. The bands do not depend on the worker count and the
// per-band flop counts are summed as integers, so the fields and counts
// are bit-identical at any worker count, serial included.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace ess::exec {
class ThreadPool;
}

namespace ess::apps::ppm {

inline constexpr double kGamma = 1.4;
inline constexpr int kGhost = 3;  // PPM face values need 3 upwind cells

/// Conserved-variable field set on an nx-by-ny grid ("four grids": density,
/// x-momentum, y-momentum, total energy).
struct Euler2D {
  int nx = 0, ny = 0;
  std::vector<double> rho, mx, my, e;

  Euler2D(int nx_, int ny_);

  int stride() const { return nx + 2 * kGhost; }
  int idx(int i, int j) const { return (j + kGhost) * stride() + (i + kGhost); }
  std::size_t cells() const { return static_cast<std::size_t>(nx) * ny; }
};

struct StepStats {
  double dt = 0;
  double max_speed = 0;
  std::uint64_t flops = 0;  // counted floating-point work of the step
};

struct Totals {
  double mass = 0;
  double energy = 0;
  double max_density = 0;
};

class PpmSolver {
 public:
  /// Bands of rows (X sweep) or columns (Y sweep); the last may be short
  /// or empty.
  static constexpr int kSweepBands = 16;

  /// `pool` (not owned; null = serial) runs the sweeps' bands.
  PpmSolver(int nx, int ny, double dx, double dy,
            exec::ThreadPool* pool = nullptr);
  ~PpmSolver();

  /// Circular blast-wave initial condition (supernova-like): ambient gas
  /// with a high-pressure region of radius `r` at the grid centre.
  void init_blast(double p_ambient, double p_blast, double r);

  /// One Strang-split step at the given CFL number; reflecting walls.
  StepStats step(double cfl);

  Totals totals() const;
  const Euler2D& state() const { return u_; }
  Euler2D& state() { return u_; }

  /// Approximate memory footprint of the solver's arrays in bytes (used to
  /// size the workload model's anonymous segment).
  std::uint64_t memory_bytes() const;

 private:
  void apply_reflecting_bc();
  double compute_dt(double cfl) const;
  void sweep_x(double dt);
  void sweep_y(double dt);

  /// Pencil scratch: primitive variables and fluxes for one row/column.
  struct Pencil;
  /// PPM-reconstruct + HLL-flux one pencil of n cells (with ghosts), whose
  /// primitives are loaded. Returns flops performed.
  static std::uint64_t sweep_pencil(Pencil& s, int n);
  /// line(pencil, l) for l in [0, lines), in kSweepBands bands on the
  /// pool; returns the sum of what the calls return (their flops).
  std::uint64_t sweep_lines(
      int lines, const std::function<std::uint64_t(Pencil&, int)>& line);

  Euler2D u_;
  double dx_, dy_;
  exec::ThreadPool* pool_ = nullptr;
  int pencil_cells_ = 0;  // a pencil's cells, ghosts included
  // Pencils not in use: one is made per band running at once (so at most
  // the pool's workers + 1), and each band returns its own.
  std::mutex spare_mu_;
  std::vector<std::unique_ptr<Pencil>> spare_;
  std::uint64_t step_flops_ = 0;
};

}  // namespace ess::apps::ppm
