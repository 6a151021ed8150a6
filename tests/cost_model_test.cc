// Validates the analytic cost model (the paper's announced future work)
// against the full virtual-time protocol simulation across schemas,
// node counts and operations.
#include <gtest/gtest.h>

#include "test_harness.h"

namespace panda {
namespace {

struct CostCase {
  const char* name;
  std::int64_t size_mb;
  Shape cn_mesh;
  int servers;
  bool traditional;
  IoOp op;
  bool fast_disk;
};

// Print the case by name: gtest's default byte dump would show the address
// held in `name`, which moves from run to run and so renames the test.
void PrintTo(const CostCase& cc, std::ostream* os) { *os << cc.name; }

double SimulateCollective(const ArrayMeta& meta, const World& world,
                          const Sp2Params& params, IoOp op) {
  Machine machine = Machine::Simulated(world.num_clients, world.num_servers,
                                       params, /*store_data=*/false,
                                       /*timing_only=*/true);
  double elapsed = 0.0;
  machine.Run(
      [&](Endpoint& ep, int idx) {
        PandaClient client(ep, world, params);
        Array a(meta.name, meta.elem_size, meta.memory, meta.disk);
        a.BindClient(idx, false);
        client.WriteArray(a);  // ensure files exist for reads
        const double t =
            op == IoOp::kWrite ? client.WriteArray(a) : client.ReadArray(a);
        if (idx == 0) {
          elapsed = t;
          client.Shutdown();
        }
      },
      [&](Endpoint& ep, int sidx) {
        ServerMain(ep, machine.server_fs(sidx), world, params);
      });
  return elapsed;
}

class CostModelAccuracy : public ::testing::TestWithParam<CostCase> {};

TEST_P(CostModelAccuracy, PredictsWithinTolerance) {
  const CostCase& cc = GetParam();
  const Sp2Params params =
      cc.fast_disk ? Sp2Params::NasFastDisk() : Sp2Params::Nas();
  ArrayMeta meta;
  meta.name = "c";
  meta.elem_size = 4;
  const Shape shape{cc.size_mb, 512, 512};
  meta.memory = Schema(shape, Mesh(cc.cn_mesh),
                       std::vector<DimDist>(3, DimDist::Block()));
  meta.disk = cc.traditional
                  ? Schema(shape, Mesh(Shape{cc.servers}),
                           {DimDist::Block(), DimDist::None(),
                            DimDist::None()})
                  : meta.memory;
  const World world{static_cast<int>(Mesh(cc.cn_mesh).size()), cc.servers};

  const double measured = SimulateCollective(meta, world, params, cc.op);
  const CostEstimate predicted = PredictArrayIo(meta, cc.op, world, params);
  EXPECT_NEAR(predicted.elapsed_s, measured, 0.20 * measured)
      << "measured " << measured << "s, predicted " << predicted.elapsed_s
      << "s";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CostModelAccuracy,
    ::testing::Values(
        CostCase{"nat_write", 16, {2, 2, 2}, 2, false, IoOp::kWrite, false},
        CostCase{"nat_read", 16, {2, 2, 2}, 2, false, IoOp::kRead, false},
        CostCase{"nat_write_8ion", 32, {2, 2, 2}, 8, false, IoOp::kWrite,
                 false},
        CostCase{"trad_write", 16, {2, 2, 2}, 4, true, IoOp::kWrite, false},
        CostCase{"trad_read", 16, {2, 2, 2}, 4, true, IoOp::kRead, false},
        CostCase{"trad_write_32cn", 16, {4, 4, 2}, 4, true, IoOp::kWrite,
                 false},
        CostCase{"fast_nat_write", 32, {4, 4, 2}, 4, false, IoOp::kWrite,
                 true},
        CostCase{"fast_trad_write", 32, {4, 2, 2}, 4, true, IoOp::kWrite,
                 true},
        CostCase{"uneven_servers", 16, {2, 2, 2}, 3, false, IoOp::kWrite,
                 false}),
    [](const ::testing::TestParamInfo<CostCase>& info) {
      return info.param.name;
    });

TEST(CostModelTest, StartupMatchesPaperOrderOfMagnitude) {
  // The paper measured ~13 ms of per-collective overhead; the model's
  // fixed term must be the same order of magnitude.
  const Sp2Params params = Sp2Params::Nas();
  ArrayMeta meta;
  meta.name = "tiny";
  meta.elem_size = 4;
  meta.memory = Schema({8}, Mesh(Shape{8}), {DimDist::Block()});
  meta.disk = meta.memory;
  const CostEstimate est =
      PredictArrayIo(meta, IoOp::kWrite, World{8, 2}, params);
  EXPECT_GT(est.startup_s, 0.005);
  EXPECT_LT(est.startup_s, 0.040);
}

TEST(CostModelTest, DiskBoundConfigurationsAreDiskDominated) {
  const Sp2Params params = Sp2Params::Nas();
  ArrayMeta meta;
  meta.name = "d";
  meta.elem_size = 4;
  meta.memory = Schema({64, 512, 512}, Mesh(Shape{2, 2, 2}),
                       std::vector<DimDist>(3, DimDist::Block()));
  meta.disk = meta.memory;
  const CostEstimate est =
      PredictArrayIo(meta, IoOp::kWrite, World{8, 2}, params);
  EXPECT_GT(est.disk_s, 0.8 * est.elapsed_s);
}

TEST(CostModelTest, MoreServersPredictLowerElapsed) {
  const Sp2Params params = Sp2Params::Nas();
  ArrayMeta meta;
  meta.name = "s";
  meta.elem_size = 4;
  meta.memory = Schema({64, 512, 512}, Mesh(Shape{2, 2, 2}),
                       std::vector<DimDist>(3, DimDist::Block()));
  meta.disk = meta.memory;
  double prev = 1e18;
  for (const int servers : {1, 2, 4, 8}) {
    const double t =
        PredictArrayIo(meta, IoOp::kWrite, World{8, servers}, params)
            .elapsed_s;
    EXPECT_LT(t, prev);
    prev = t;
  }
}

TEST(CostModelTest, SubarrayPredictionsScaleWithTheSlice) {
  const Sp2Params params = Sp2Params::Nas();
  ArrayMeta meta;
  meta.name = "sub";
  meta.elem_size = 4;
  meta.memory = Schema({64, 512, 512}, Mesh(Shape{2, 2, 2}),
                       std::vector<DimDist>(3, DimDist::Block()));
  meta.disk = Schema({64, 512, 512}, Mesh(Shape{4}),
                     {DimDist::Block(), DimDist::None(), DimDist::None()});
  const World world{8, 4};
  const double full =
      PredictArrayIo(meta, IoOp::kRead, world, params).elapsed_s;
  const Region plane({32, 0, 0}, {1, 512, 512});
  const double slice =
      PredictArrayIo(meta, IoOp::kRead, world, params, &plane).elapsed_s;
  EXPECT_LT(slice, 0.1 * full);  // one plane of 64
  // Subarray writes are rejected.
  EXPECT_THROW(PredictArrayIo(meta, IoOp::kWrite, world, params, &plane),
               PandaError);
}

TEST(CostModelTest, ReorganizationCostsMoreOnFastDisks) {
  // The Figure 6 vs Figure 9 contrast, as predictions.
  const Sp2Params params = Sp2Params::NasFastDisk();
  const Shape shape{64, 512, 512};
  ArrayMeta natural;
  natural.name = "n";
  natural.elem_size = 4;
  natural.memory = Schema(shape, Mesh(Shape{4, 2, 2}),
                          std::vector<DimDist>(3, DimDist::Block()));
  natural.disk = natural.memory;
  ArrayMeta traditional = natural;
  traditional.disk = Schema(shape, Mesh(Shape{4}),
                            {DimDist::Block(), DimDist::None(),
                             DimDist::None()});
  const World world{16, 4};
  const double tn =
      PredictArrayIo(natural, IoOp::kWrite, world, params).elapsed_s;
  const double tt =
      PredictArrayIo(traditional, IoOp::kWrite, world, params).elapsed_s;
  EXPECT_GT(tt, 1.05 * tn);
}

// ---------------------------------------------------------------------------
// Codec-aware predictions (ISSUE 5: the advisor samples a ratio via
// AdviseCodec and feeds it here before choosing whether to compress).

ArrayMeta CodecMeta(CodecId codec) {
  ArrayMeta meta;
  meta.name = "cz";
  meta.elem_size = 4;
  const Shape shape{16, 512, 512};
  meta.memory = Schema(shape, Mesh(Shape{2, 2, 2}),
                       std::vector<DimDist>(3, DimDist::Block()));
  meta.disk = Schema(shape, Mesh(Shape{2}),
                     {DimDist::Block(), DimDist::None(), DimDist::None()});
  meta.codec = codec;
  return meta;
}

TEST(CostModelTest, CodecRatioShrinksCodedPredictions) {
  const Sp2Params params = Sp2Params::Nas();
  const World world{8, 2};
  const ArrayMeta coded = CodecMeta(CodecId::kShuffleRle);
  for (const IoOp op : {IoOp::kWrite, IoOp::kRead}) {
    const double at_unity =
        PredictArrayIo(coded, op, world, params, nullptr, 1.0).elapsed_s;
    const double at_half =
        PredictArrayIo(coded, op, world, params, nullptr, 0.5).elapsed_s;
    // Half the wire+disk bytes must predict faster, even after paying
    // the encode/decode compute terms.
    EXPECT_LT(at_half, at_unity) << "op " << static_cast<int>(op);
  }
}

TEST(CostModelTest, NoneArraysIgnoreTheRatio) {
  // codec=none must predict exactly the pre-codec formulas no matter
  // what ratio is passed — bit-identical baseline, like the runtime.
  const Sp2Params params = Sp2Params::Nas();
  const World world{8, 2};
  const ArrayMeta plain = CodecMeta(CodecId::kNone);
  const double base =
      PredictArrayIo(plain, IoOp::kWrite, world, params).elapsed_s;
  const double with_ratio =
      PredictArrayIo(plain, IoOp::kWrite, world, params, nullptr, 0.25)
          .elapsed_s;
  EXPECT_DOUBLE_EQ(base, with_ratio);
}

TEST(CostModelTest, CodedArrayPaysComputeAtUnityRatio) {
  // With ratio 1.0 (incompressible data someone forced through a
  // codec), the coded prediction can only be slower than none: same
  // bytes plus encode/decode compute.
  const Sp2Params params = Sp2Params::Nas();
  const World world{8, 2};
  const double plain =
      PredictArrayIo(CodecMeta(CodecId::kNone), IoOp::kWrite, world, params)
          .elapsed_s;
  const double coded =
      PredictArrayIo(CodecMeta(CodecId::kRle), IoOp::kWrite, world, params,
                     nullptr, 1.0)
          .elapsed_s;
  EXPECT_GT(coded, plain);
}

TEST(CostModelTest, InvalidRatioRejected) {
  const Sp2Params params = Sp2Params::Nas();
  const World world{8, 2};
  EXPECT_THROW(PredictArrayIo(CodecMeta(CodecId::kRle), IoOp::kWrite, world,
                              params, nullptr, 0.0),
               PandaError);
}

}  // namespace
}  // namespace panda
