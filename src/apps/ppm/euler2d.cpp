#include "apps/ppm/euler2d.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "exec/thread_pool.hpp"

namespace ess::apps::ppm {

struct PpmSolver::Pencil {
  explicit Pencil(int n)
      : rho(n), u(n), v(n), p(n), fv(n + 4), sl(n + 4), lrho(n), lu(n),
        lv(n), lp(n), rrho(n), ru(n), rv(n), rp(n), frho(n + 1), fmx(n + 1),
        fmy(n + 1), fe(n + 1) {}

  std::vector<double> rho, u, v, p;      // primitives (offset kGhost)
  std::vector<double> fv;                // face values (offset 2)
  std::vector<double> sl;                // cell slopes (offset 2)
  std::vector<double> lrho, lu, lv, lp;  // per-cell left edges (+1)
  std::vector<double> rrho, ru, rv, rp;  // per-cell right edges (+1)
  std::vector<double> frho, fmx, fmy, fe;  // interface fluxes
};

namespace {

// Monotonized-central slope (van Leer), the building block of the PPM
// limiter.
double mc_slope(double qm, double q0, double qp) {
  const double dl = q0 - qm;
  const double dr = qp - q0;
  if (dl * dr <= 0.0) return 0.0;
  const double dc = 0.5 * (qp - qm);
  const double lim = 2.0 * std::min(std::abs(dl), std::abs(dr));
  return std::copysign(std::min(std::abs(dc), lim), dc);
}

// PPM interface value between cells with averages q0 and qp and limited
// slopes s0 and s1 (4th-order, Colella & Woodward eq. 1.6).
double ppm_face(double q0, double qp, double s0, double s1) {
  return q0 + 0.5 * (qp - q0) - (s1 - s0) / 6.0;
}

// Monotonize a cell's parabola (Colella & Woodward eq. 1.10): ql/qr are the
// cell's left/right edge values, q0 its average.
void ppm_monotonize(double q0, double& ql, double& qr) {
  if ((qr - q0) * (q0 - ql) <= 0.0) {
    ql = q0;
    qr = q0;
    return;
  }
  const double dq = qr - ql;
  const double q6 = 6.0 * (q0 - 0.5 * (ql + qr));
  if (dq * q6 > dq * dq) {
    ql = 3.0 * q0 - 2.0 * qr;
  } else if (-dq * dq > dq * q6) {
    qr = 3.0 * q0 - 2.0 * ql;
  }
}

}  // namespace

Euler2D::Euler2D(int nx_, int ny_) : nx(nx_), ny(ny_) {
  const std::size_t n =
      static_cast<std::size_t>(nx + 2 * kGhost) * (ny + 2 * kGhost);
  rho.assign(n, 0.0);
  mx.assign(n, 0.0);
  my.assign(n, 0.0);
  e.assign(n, 0.0);
}

PpmSolver::PpmSolver(int nx, int ny, double dx, double dy,
                     exec::ThreadPool* pool)
    : u_(nx, ny),
      dx_(dx),
      dy_(dy),
      pool_(pool),
      pencil_cells_(std::max(nx, ny) + 2 * kGhost) {
  if (nx < 4 || ny < 4) throw std::invalid_argument("grid too small");
}

PpmSolver::~PpmSolver() = default;

void PpmSolver::init_blast(double p_ambient, double p_blast, double r) {
  const double cx = 0.5 * u_.nx * dx_;
  const double cy = 0.5 * u_.ny * dy_;
  for (int j = 0; j < u_.ny; ++j) {
    for (int i = 0; i < u_.nx; ++i) {
      const double x = (i + 0.5) * dx_;
      const double y = (j + 0.5) * dy_;
      const double dist = std::hypot(x - cx, y - cy);
      const double p = dist < r ? p_blast : p_ambient;
      const int k = u_.idx(i, j);
      u_.rho[k] = 1.0;
      u_.mx[k] = 0.0;
      u_.my[k] = 0.0;
      u_.e[k] = p / (kGamma - 1.0);
    }
  }
  apply_reflecting_bc();
}

void PpmSolver::apply_reflecting_bc() {
  const int nx = u_.nx, ny = u_.ny;
  // Left/right.
  for (int j = -kGhost; j < ny + kGhost; ++j) {
    for (int g = 1; g <= kGhost; ++g) {
      const int jj = std::clamp(j, 0, ny - 1);
      {
        const int src = u_.idx(g - 1, jj), dst = u_.idx(-g, jj);
        u_.rho[dst] = u_.rho[src];
        u_.mx[dst] = -u_.mx[src];
        u_.my[dst] = u_.my[src];
        u_.e[dst] = u_.e[src];
      }
      {
        const int src = u_.idx(nx - g, jj), dst = u_.idx(nx - 1 + g, jj);
        u_.rho[dst] = u_.rho[src];
        u_.mx[dst] = -u_.mx[src];
        u_.my[dst] = u_.my[src];
        u_.e[dst] = u_.e[src];
      }
    }
  }
  // Bottom/top.
  for (int i = 0; i < nx; ++i) {
    for (int g = 1; g <= kGhost; ++g) {
      {
        const int src = u_.idx(i, g - 1), dst = u_.idx(i, -g);
        u_.rho[dst] = u_.rho[src];
        u_.mx[dst] = u_.mx[src];
        u_.my[dst] = -u_.my[src];
        u_.e[dst] = u_.e[src];
      }
      {
        const int src = u_.idx(i, ny - g), dst = u_.idx(i, ny - 1 + g);
        u_.rho[dst] = u_.rho[src];
        u_.mx[dst] = u_.mx[src];
        u_.my[dst] = -u_.my[src];
        u_.e[dst] = u_.e[src];
      }
    }
  }
}

double PpmSolver::compute_dt(double cfl) const {
  double max_speed = 1e-12;
  for (int j = 0; j < u_.ny; ++j) {
    for (int i = 0; i < u_.nx; ++i) {
      const int k = u_.idx(i, j);
      const double rho = u_.rho[k];
      const double vx = u_.mx[k] / rho;
      const double vy = u_.my[k] / rho;
      const double ke = 0.5 * rho * (vx * vx + vy * vy);
      const double p = (kGamma - 1.0) * (u_.e[k] - ke);
      const double c = std::sqrt(kGamma * std::max(p, 1e-12) / rho);
      max_speed = std::max(max_speed,
                           std::max(std::abs(vx), std::abs(vy)) + c);
    }
  }
  return cfl * std::min(dx_, dy_) / max_speed;
}

StepStats PpmSolver::step(double cfl) {
  step_flops_ = 0;
  const double dt = compute_dt(cfl);
  step_flops_ += u_.cells() * 14;  // dt scan

  // Strang splitting: X, Y (a full X-Y / Y-X alternation is overkill for
  // the workload study; the symmetric error is O(dt^2) either way).
  sweep_x(dt);
  apply_reflecting_bc();
  sweep_y(dt);
  apply_reflecting_bc();

  StepStats s;
  s.dt = dt;
  s.flops = step_flops_;
  return s;
}

std::uint64_t PpmSolver::sweep_pencil(Pencil& s, int n) {
  // Primitives for cells [-kGhost, n+kGhost) are already loaded into
  // s.rho/u/v/p with index shift kGhost.
  auto P = [&](const std::vector<double>& v, int i) { return v[i + kGhost]; };

  // Per-cell PPM reconstruction for cells -1..n: edge values from the
  // quartic face interpolant, then the Colella–Woodward monotonization.
  // Arrays s.lX/s.rX hold each CELL's left/right edge value (offset +1).
  auto reconstruct = [&](const std::vector<double>& q, std::vector<double>& cl,
                         std::vector<double>& cr) {
    // Face f sits between cells f-1 and f; needed for f in [-1, n+1], so
    // each cell's slope is needed for cells -2..n+1 (offset +2), and each
    // is computed once although two faces use it.
    for (int c = -2; c <= n + 1; ++c) {
      s.sl[static_cast<std::size_t>(c + 2)] =
          mc_slope(P(q, c - 1), P(q, c), P(q, c + 1));
    }
    for (int f = -1; f <= n + 1; ++f) {
      s.fv[static_cast<std::size_t>(f + 2)] =
          ppm_face(P(q, f - 1), P(q, f), s.sl[static_cast<std::size_t>(f + 1)],
                   s.sl[static_cast<std::size_t>(f + 2)]);
    }
    for (int i = -1; i <= n; ++i) {
      double ql = s.fv[static_cast<std::size_t>(i + 2)];      // face i
      double qr = s.fv[static_cast<std::size_t>(i + 1 + 2)];  // face i+1
      ppm_monotonize(P(q, i), ql, qr);
      cl[static_cast<std::size_t>(i + 1)] = ql;
      cr[static_cast<std::size_t>(i + 1)] = qr;
    }
  };
  reconstruct(s.rho, s.lrho, s.rrho);
  reconstruct(s.u, s.lu, s.ru);
  reconstruct(s.v, s.lv, s.rv);
  reconstruct(s.p, s.lp, s.rp);

  // HLL fluxes at every face: the left state is the right edge of cell
  // f-1, the right state is the left edge of cell f.
  for (int f = 0; f <= n; ++f) {
    const auto il = static_cast<std::size_t>(f - 1 + 1);
    const auto ir = static_cast<std::size_t>(f + 1);
    const double rl = std::max(s.rrho[il], 1e-12);
    const double rr = std::max(s.lrho[ir], 1e-12);
    const double ul = s.ru[il], ur = s.lu[ir];
    const double vl = s.rv[il], vr = s.lv[ir];
    const double pl = std::max(s.rp[il], 1e-12);
    const double pr = std::max(s.lp[ir], 1e-12);
    const double cl = std::sqrt(kGamma * pl / rl);
    const double cr = std::sqrt(kGamma * pr / rr);
    const double sl = std::min(ul - cl, ur - cr);
    const double sr = std::max(ul + cl, ur + cr);

    const double el = pl / (kGamma - 1.0) + 0.5 * rl * (ul * ul + vl * vl);
    const double er = pr / (kGamma - 1.0) + 0.5 * rr * (ur * ur + vr * vr);

    const double f_rho_l = rl * ul, f_rho_r = rr * ur;
    const double f_mx_l = rl * ul * ul + pl, f_mx_r = rr * ur * ur + pr;
    const double f_my_l = rl * ul * vl, f_my_r = rr * ur * vr;
    const double f_e_l = (el + pl) * ul, f_e_r = (er + pr) * ur;

    if (sl >= 0.0) {
      s.frho[f] = f_rho_l;
      s.fmx[f] = f_mx_l;
      s.fmy[f] = f_my_l;
      s.fe[f] = f_e_l;
    } else if (sr <= 0.0) {
      s.frho[f] = f_rho_r;
      s.fmx[f] = f_mx_r;
      s.fmy[f] = f_my_r;
      s.fe[f] = f_e_r;
    } else {
      const double inv = 1.0 / (sr - sl);
      s.frho[f] = (sr * f_rho_l - sl * f_rho_r + sl * sr * (rr - rl)) * inv;
      s.fmx[f] =
          (sr * f_mx_l - sl * f_mx_r + sl * sr * (rr * ur - rl * ul)) * inv;
      s.fmy[f] =
          (sr * f_my_l - sl * f_my_r + sl * sr * (rr * vr - rl * vl)) * inv;
      s.fe[f] = (sr * f_e_l - sl * f_e_r + sl * sr * (er - el)) * inv;
    }
  }
  // Reconstruction ~60 flops/face, monotonization ~24, HLL ~70.
  return static_cast<std::uint64_t>(n + 1) * 154;
}

std::uint64_t PpmSolver::sweep_lines(
    int lines, const std::function<std::uint64_t(Pencil&, int)>& line) {
  const int per = (lines + kSweepBands - 1) / kSweepBands;
  std::array<std::uint64_t, kSweepBands> flops{};
  const auto band = [&](std::size_t b) {
    const int first = static_cast<int>(b) * per;
    const int last = std::min(lines, first + per);
    if (first >= last) return;
    std::unique_ptr<Pencil> pencil;
    {
      std::lock_guard<std::mutex> lock(spare_mu_);
      if (!spare_.empty()) {
        pencil = std::move(spare_.back());
        spare_.pop_back();
      }
    }
    if (!pencil) pencil = std::make_unique<Pencil>(pencil_cells_);
    for (int l = first; l < last; ++l) flops[b] += line(*pencil, l);
    std::lock_guard<std::mutex> lock(spare_mu_);
    spare_.push_back(std::move(pencil));
  };
  if (pool_ != nullptr) {
    exec::parallel_for(*pool_, kSweepBands, band);
  } else {
    for (std::size_t b = 0; b < kSweepBands; ++b) band(b);
  }
  return std::accumulate(flops.begin(), flops.end(), std::uint64_t{0});
}

void PpmSolver::sweep_x(double dt) {
  const double r = dt / dx_;
  step_flops_ += sweep_lines(u_.ny, [&](Pencil& s, int j) {
    // Load primitives for the pencil.
    for (int i = -kGhost; i < u_.nx + kGhost; ++i) {
      const int k = u_.idx(i, j);
      const double rho = std::max(u_.rho[k], 1e-12);
      const double vx = u_.mx[k] / rho;
      const double vy = u_.my[k] / rho;
      s.rho[i + kGhost] = rho;
      s.u[i + kGhost] = vx;
      s.v[i + kGhost] = vy;
      s.p[i + kGhost] =
          (kGamma - 1.0) * (u_.e[k] - 0.5 * rho * (vx * vx + vy * vy));
    }
    const std::uint64_t flops = sweep_pencil(s, u_.nx);
    for (int i = 0; i < u_.nx; ++i) {
      const int k = u_.idx(i, j);
      u_.rho[k] -= r * (s.frho[i + 1] - s.frho[i]);
      u_.mx[k] -= r * (s.fmx[i + 1] - s.fmx[i]);
      u_.my[k] -= r * (s.fmy[i + 1] - s.fmy[i]);
      u_.e[k] -= r * (s.fe[i + 1] - s.fe[i]);
    }
    return flops + static_cast<std::uint64_t>(u_.nx) * 18;
  });
}

void PpmSolver::sweep_y(double dt) {
  const double r = dt / dy_;
  step_flops_ += sweep_lines(u_.nx, [&](Pencil& s, int i) {
    for (int j = -kGhost; j < u_.ny + kGhost; ++j) {
      const int k = u_.idx(i, j);
      const double rho = std::max(u_.rho[k], 1e-12);
      const double vx = u_.mx[k] / rho;
      const double vy = u_.my[k] / rho;
      s.rho[j + kGhost] = rho;
      // For the Y sweep, the "u" of the pencil is vy, "v" is vx.
      s.u[j + kGhost] = vy;
      s.v[j + kGhost] = vx;
      s.p[j + kGhost] =
          (kGamma - 1.0) * (u_.e[k] - 0.5 * rho * (vx * vx + vy * vy));
    }
    const std::uint64_t flops = sweep_pencil(s, u_.ny);
    for (int j = 0; j < u_.ny; ++j) {
      const int k = u_.idx(i, j);
      u_.rho[k] -= r * (s.frho[j + 1] - s.frho[j]);
      u_.my[k] -= r * (s.fmx[j + 1] - s.fmx[j]);  // pencil-u is vy
      u_.mx[k] -= r * (s.fmy[j + 1] - s.fmy[j]);
      u_.e[k] -= r * (s.fe[j + 1] - s.fe[j]);
    }
    return flops + static_cast<std::uint64_t>(u_.ny) * 18;
  });
}

Totals PpmSolver::totals() const {
  Totals t;
  for (int j = 0; j < u_.ny; ++j) {
    for (int i = 0; i < u_.nx; ++i) {
      const int k = u_.idx(i, j);
      t.mass += u_.rho[k] * dx_ * dy_;
      t.energy += u_.e[k] * dx_ * dy_;
      t.max_density = std::max(t.max_density, u_.rho[k]);
    }
  }
  return t;
}

std::uint64_t PpmSolver::memory_bytes() const {
  const std::uint64_t grid = u_.rho.size() * sizeof(double) * 4;
  // Twelve per-cell pencil arrays and four flux arrays (the face-value
  // and slope arrays are not counted).
  const auto n = static_cast<std::uint64_t>(pencil_cells_);
  const std::uint64_t pencils = (n * 12 + (n + 1) * 4) * sizeof(double);
  return grid + pencils;
}

}  // namespace ess::apps::ppm
