// Phase A at paper scale, pinned bit for bit: the default StudyConfig's
// PPM run (240x480 grid, 60 steps) and N-body run (8192 bodies, 60 steps),
// computed through the numerics cache as every Study computes them. The
// other apps tests pin only toy sizes, so a change that moves a bit only
// at scale (a band split, a kernel instance, a group boundary) shows here.
// The values were recorded before the PPM sweeps ran in bands and before
// the N-body kernel had an AVX2 instance.
//
// About 1 s in an optimized build, so this binary is kept out of the
// ThreadSanitizer CI row, which builds and runs the other suites.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/numerics_cache.hpp"
#include "core/study.hpp"

namespace ess::core {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(PaperScaleNumerics, MatchesRecordedValuesBitForBit) {
  const AppNumerics n = app_numerics(StudyConfig{});

  const apps::ppm::PpmNumerics& ppm = *n.ppm;
  EXPECT_EQ(ppm.step_flops,
            std::vector<std::uint64_t>(60, std::uint64_t{41352480}));
  EXPECT_EQ(bits(ppm.final_mass), bits(0x1.00000000010bp+1));
  EXPECT_EQ(bits(ppm.final_energy), bits(0x1.4670a3d70dae8p+0));
  EXPECT_EQ(bits(ppm.max_density), bits(0x1.0f831b96a39b5p+2));
  EXPECT_EQ(ppm.memory_bytes, 3888032u);

  const apps::nbody::NBodyNumerics& nbody = *n.nbody;
  const std::vector<std::uint64_t> interactions = {
      4380664, 4385253, 4385596, 4387226, 4388945, 4387855, 4388576,
      4387350, 4389622, 4389716, 4387867, 4388910, 4387747, 4383343,
      4385734, 4388837, 4389989, 4390327, 4392271, 4393386, 4393893,
      4391587, 4393171, 4394042, 4396550, 4398613, 4404541, 4410305,
      4402136, 4404381, 4403512, 4404287, 4405469, 4407111, 4407092,
      4413038, 4411318, 4415356, 4416307, 4420052, 4421478, 4423752,
      4422240, 4429086, 4435348, 4435583, 4442814, 4448265, 4451683,
      4456998, 4457449, 4464147, 4467894, 4472064, 4474397, 4480542,
      4484794, 4490463, 4488965, 4494485};
  EXPECT_EQ(nbody.step_interactions, interactions);
  EXPECT_EQ(nbody.total_interactions, 269372555u);
  EXPECT_EQ(bits(nbody.final_kinetic), bits(0x1.e8ccd3fe8baa5p-6));
  EXPECT_EQ(bits(nbody.momentum_drift), bits(0x1.763dac9abd6eep-16));
}

}  // namespace
}  // namespace ess::core
