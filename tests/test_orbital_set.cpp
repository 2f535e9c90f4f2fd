// OrbitalSet facade tests: the facade must be a pure re-routing layer —
// bit-for-bit identical to direct engine calls for every wrapped engine
// (AoS / SoA / AoSoA), every derivative level (V / VGL / VGH), every
// position-block choice (P = 1, a non-dividing P, the whole batch), both
// precisions, and with remainder tiles in play.  Plus the capability
// surface drivers base their explicit single-vs-multi decision on.
#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/bspline_aos.h"
#include "core/bspline_soa.h"
#include "core/multi_bspline.h"
#include "core/orbital_set.h"
#include "core/synthetic_orbitals.h"
#include "qmc/walker.h"
#include "test_utils.h"

using namespace mqc;

namespace {

// N = 44 with tile 16 -> tiles {16, 16, 12}: a remainder tile is always in
// play for the AoSoA engine.  P = 3 does not divide the 8-position batch.
constexpr int kSplines = 44;
constexpr int kTile = 16;
constexpr int kBatch = 8;

template <typename T>
struct FacadeFixture
{
  std::shared_ptr<CoefStorage<T>> coefs;
  BsplineAoS<T> aos;
  BsplineSoA<T> soa;
  MultiBspline<T> aosoa;
  std::vector<Vec3<T>> positions;

  FacadeFixture()
      : coefs(make_random_storage<T>(Grid3D<T>::cube(8, T(1)), kSplines, 404)), aos(coefs),
        soa(coefs), aosoa(*coefs, kTile)
  {
    Xoshiro256 rng(405);
    for (int p = 0; p < kBatch; ++p)
      positions.push_back(Vec3<T>{static_cast<T>(rng.uniform()), static_cast<T>(rng.uniform()),
                                  static_cast<T>(rng.uniform())});
  }
};

/// Per-position output buffers sized for the given stride, with pointer
/// tables the facade request plugs into directly.
template <typename T>
struct Outputs
{
  std::vector<std::unique_ptr<WalkerSoA<T>>> soa_bufs;
  std::vector<std::unique_ptr<WalkerAoS<T>>> aos_bufs;
  std::vector<T*> v, g, lh;

  Outputs(int count, std::size_t stride, bool aos, bool hessian)
  {
    for (int p = 0; p < count; ++p) {
      if (aos) {
        aos_bufs.push_back(std::make_unique<WalkerAoS<T>>(stride));
        v.push_back(aos_bufs.back()->v.data());
        g.push_back(aos_bufs.back()->g.data());
        lh.push_back(hessian ? aos_bufs.back()->h.data() : aos_bufs.back()->l.data());
      } else {
        soa_bufs.push_back(std::make_unique<WalkerSoA<T>>(stride));
        v.push_back(soa_bufs.back()->v.data());
        g.push_back(soa_bufs.back()->g.data());
        lh.push_back(hessian ? soa_bufs.back()->h.data() : soa_bufs.back()->l.data());
      }
    }
  }

};

enum class Fam
{
  AoS,
  SoA,
  AoSoA
};

template <typename T>
OrbitalSet<T> facade_for(FacadeFixture<T>& fx, Fam fam)
{
  switch (fam) {
  case Fam::AoS:
    return OrbitalSet<T>(fx.aos);
  case Fam::SoA:
    return OrbitalSet<T>(fx.soa);
  default:
    return OrbitalSet<T>(fx.aosoa);
  }
}

template <typename T>
std::size_t stride_for(FacadeFixture<T>& fx, Fam fam)
{
  return fam == Fam::AoSoA ? fx.aosoa.out_stride() : fx.soa.out_stride();
}

/// Direct (raw entry point) reference evaluation, one call per position.
template <typename T>
void direct_eval(FacadeFixture<T>& fx, Fam fam, DerivLevel d, Outputs<T>& out)
{
  const std::size_t stride = stride_for(fx, fam);
  for (std::size_t p = 0; p < fx.positions.size(); ++p) {
    const Vec3<T>& r = fx.positions[p];
    switch (fam) {
    case Fam::AoS:
      if (d == DerivLevel::V)
        fx.aos.evaluate_v(r.x, r.y, r.z, out.v[p]);
      else if (d == DerivLevel::VGL)
        fx.aos.evaluate_vgl(r.x, r.y, r.z, out.v[p], out.g[p], out.lh[p]);
      else
        fx.aos.evaluate_vgh(r.x, r.y, r.z, out.v[p], out.g[p], out.lh[p]);
      break;
    case Fam::SoA:
      if (d == DerivLevel::V)
        fx.soa.evaluate_v(r.x, r.y, r.z, out.v[p]);
      else if (d == DerivLevel::VGL)
        fx.soa.evaluate_vgl(r.x, r.y, r.z, out.v[p], out.g[p], out.lh[p], stride);
      else
        fx.soa.evaluate_vgh(r.x, r.y, r.z, out.v[p], out.g[p], out.lh[p], stride);
      break;
    default:
      if (d == DerivLevel::V)
        fx.aosoa.evaluate_v(r.x, r.y, r.z, out.v[p]);
      else if (d == DerivLevel::VGL)
        fx.aosoa.evaluate_vgl(r.x, r.y, r.z, out.v[p], out.g[p], out.lh[p], stride);
      else
        fx.aosoa.evaluate_vgh(r.x, r.y, r.z, out.v[p], out.g[p], out.lh[p], stride);
      break;
    }
  }
}

template <typename T>
void run_equivalence(Fam fam, DerivLevel d, int pos_block, bool parallel,
                     TeamHandle team = TeamHandle::whole_machine())
{
  FacadeFixture<T> fx;
  const bool aos = fam == Fam::AoS;
  const bool hessian = d == DerivLevel::VGH;
  const std::size_t stride = stride_for(fx, fam);

  Outputs<T> ref(kBatch, stride, aos, hessian);
  direct_eval(fx, fam, d, ref);

  Outputs<T> got(kBatch, stride, aos, hessian);
  OrbitalSet<T> spo = facade_for(fx, fam);
  OrbitalResource<T> res;
  OrbitalEvalRequest<T> rq;
  rq.deriv = d;
  rq.positions = fx.positions.data();
  rq.count = kBatch;
  rq.v = got.v.data();
  if (d != DerivLevel::V) {
    rq.g = got.g.data();
    rq.lh = got.lh.data();
  }
  rq.stride = stride;
  rq.pos_block = pos_block;
  rq.parallel = parallel;
  rq.team = team;
  spo.evaluate(rq, res);

  // Bit-for-bit across the full padded extent of every requested stream.
  const std::size_t n = stride;
  for (std::size_t p = 0; p < static_cast<std::size_t>(kBatch); ++p) {
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(ref.v[p][i], got.v[p][i]) << "v @ position " << p << " index " << i;
    if (d == DerivLevel::V)
      continue;
    const std::size_t gn = 3 * n;
    for (std::size_t i = 0; i < gn; ++i)
      ASSERT_EQ(ref.g[p][i], got.g[p][i]) << "g @ position " << p << " index " << i;
    const std::size_t hn = hessian ? (aos ? 9 * n : 6 * n) : n;
    for (std::size_t i = 0; i < hn; ++i)
      ASSERT_EQ(ref.lh[p][i], got.lh[p][i]) << "lh @ position " << p << " index " << i;
  }
}

template <typename T>
class OrbitalSetTypedTest : public ::testing::Test
{
};

using RealTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(OrbitalSetTypedTest, RealTypes);

} // namespace

// ---------------------------------------------------------------------------
// The full equivalence matrix: layouts x derivative levels x position blocks
// (P = 1, non-dividing P = 3, whole batch), float and double, remainder
// tiles included by construction (N = 44, tile 16).
// ---------------------------------------------------------------------------

TYPED_TEST(OrbitalSetTypedTest, FacadeMatchesDirectCallsBitForBit)
{
  for (const auto fam : {Fam::AoS, Fam::SoA, Fam::AoSoA})
    for (const auto d : {DerivLevel::V, DerivLevel::VGL, DerivLevel::VGH})
      for (const int pb : {1, 3, 0}) { // 0 = whole batch
        SCOPED_TRACE(::testing::Message()
                     << "family=" << static_cast<int>(fam) << " deriv=" << static_cast<int>(d)
                     << " pos_block=" << pb);
        run_equivalence<TypeParam>(fam, d, pb, /*parallel=*/false);
      }
}

TYPED_TEST(OrbitalSetTypedTest, ParallelRequestsMatchSerialBitForBit)
{
  for (const auto fam : {Fam::AoS, Fam::SoA, Fam::AoSoA})
    for (const auto d : {DerivLevel::V, DerivLevel::VGH}) {
      SCOPED_TRACE(::testing::Message()
                   << "family=" << static_cast<int>(fam) << " deriv=" << static_cast<int>(d));
      run_equivalence<TypeParam>(fam, d, /*pos_block=*/2, /*parallel=*/true);
    }
}

TYPED_TEST(OrbitalSetTypedTest, TeamScheduledRequestsMatchSerialBitForBit)
{
  // Inner-team sizes a partition could hand down: 2, a non-dividing 3
  // (kBatch = 8 positions, 3 tiles), and more threads than work items.
  // Teams only distribute independent (tile, block) items, so every size
  // must reproduce the serial sweep exactly.
  for (const auto fam : {Fam::AoS, Fam::SoA, Fam::AoSoA})
    for (const int nth : {2, 3, 16}) {
      SCOPED_TRACE(::testing::Message()
                   << "family=" << static_cast<int>(fam) << " team=" << nth);
      run_equivalence<TypeParam>(fam, DerivLevel::VGH, /*pos_block=*/2, /*parallel=*/true,
                                 TeamHandle::of(nth));
    }
}

TYPED_TEST(OrbitalSetTypedTest, SerialTeamRunsTheSerialSweep)
{
  // parallel=true with a one-thread team must not open a region at all —
  // it is the serial-inside-crowd path of a flat partition.
  run_equivalence<TypeParam>(Fam::AoSoA, DerivLevel::VGL, /*pos_block=*/3, /*parallel=*/true,
                             TeamHandle::serial());
}

TEST(OrbitalSet, TeamRequestsInsideAnOuterRegionMatchSerial)
{
  // The nested shape the crowd driver runs: an outer region whose members
  // each issue team-scheduled facade requests.  Whether the inner regions
  // fork or serialize is the runtime's nesting capability; the outputs must
  // be bit-identical either way (each member writes its own buffers).
  FacadeFixture<float> fx;
  const std::size_t stride = fx.aosoa.out_stride();
  Outputs<float> ref(kBatch, stride, false, true);
  direct_eval(fx, Fam::AoSoA, DerivLevel::VGH, ref);

  constexpr int kOuter = 2;
  std::vector<std::unique_ptr<Outputs<float>>> got;
  for (int c = 0; c < kOuter; ++c)
    got.push_back(std::make_unique<Outputs<float>>(kBatch, stride, false, true));

  request_nested_levels(2);
  OrbitalSet<float> spo(fx.aosoa);
#pragma omp parallel num_threads(kOuter)
  {
    const int c = thread_id() % kOuter;
    OrbitalResource<float>& res = OrbitalResource<float>::thread_instance();
    OrbitalEvalRequest<float> rq;
    rq.deriv = DerivLevel::VGH;
    rq.positions = fx.positions.data();
    rq.count = kBatch;
    rq.v = got[static_cast<std::size_t>(c)]->v.data();
    rq.g = got[static_cast<std::size_t>(c)]->g.data();
    rq.lh = got[static_cast<std::size_t>(c)]->lh.data();
    rq.stride = stride;
    rq.pos_block = 2;
    rq.parallel = true;
    rq.team = TeamHandle::of(2);
    spo.evaluate(rq, res);
  }

  for (int c = 0; c < kOuter; ++c)
    for (std::size_t p = 0; p < static_cast<std::size_t>(kBatch); ++p)
      for (std::size_t i = 0; i < stride; ++i)
        ASSERT_EQ(ref.v[p][i], got[static_cast<std::size_t>(c)]->v[p][i])
            << "outer member " << c << " position " << p << " index " << i;
}

TEST(OrbitalSet, ThreadInstanceIsPerNestingLevel)
{
  // Regression (nested-team hazard): the master of an inner team IS the
  // outer thread, so a single thread_local shared instance would hand a
  // nested facade call the object an enclosing call is still using.  The
  // shared instance must therefore differ per nesting level, and an outer
  // call's live weight batch must survive a nested call that uses the
  // shared instance.
  auto& outer = OrbitalResource<float>::thread_instance();
  BsplineWeights3D<float>* outer_w = outer.weights_for(4);
  outer_w[0].i0 = 41;
  outer_w[3].i0 = 44;

  OrbitalResource<float>* inner_seen = nullptr;
  request_nested_levels(2);
#pragma omp parallel num_threads(1)
  {
    // Same OS thread (a one-thread region), one nesting level deeper.
    auto& inner = OrbitalResource<float>::thread_instance();
    inner_seen = &inner;
    // A nested user may freely resize/fill its instance...
    BsplineWeights3D<float>* iw = inner.weights_for(16);
    iw[0].i0 = 1000;
  }
#ifdef _OPENMP
  ASSERT_NE(inner_seen, &outer)
      << "nested thread_instance aliased the outer call's live resource";
#endif
  // ...without clobbering the outer call's batch.
  EXPECT_EQ(outer.weights_for(4), outer_w);
  EXPECT_EQ(outer_w[0].i0, 41);
  EXPECT_EQ(outer_w[3].i0, 44);
}

namespace {

/// evaluate_one at every derivative level must equal evaluate() with count 1
/// bit for bit across the full padded extent of every stream.  V passes null
/// gradient and Laplacian/Hessian slots, as the drivers do.
template <typename T, typename Engine>
void expect_one_is_batch_of_one(const Engine& engine, const Vec3<T>& r, std::size_t stride,
                                bool aos)
{
  const OrbitalSet<T> spo(engine);
  OrbitalResource<T> res;
  for (const auto d : {DerivLevel::V, DerivLevel::VGL, DerivLevel::VGH}) {
    SCOPED_TRACE(d == DerivLevel::V ? "V" : d == DerivLevel::VGL ? "VGL" : "VGH");
    const bool hessian = d == DerivLevel::VGH;
    const bool derivs = d != DerivLevel::V;
    Outputs<T> one(1, stride, aos, hessian), batch(1, stride, aos, hessian);
    spo.evaluate_one(d, r, one.v[0], derivs ? one.g[0] : nullptr,
                     derivs ? one.lh[0] : nullptr, stride);

    OrbitalEvalRequest<T> rq;
    rq.deriv = d;
    rq.positions = &r;
    rq.count = 1;
    rq.v = batch.v.data();
    if (derivs) {
      rq.g = batch.g.data();
      rq.lh = batch.lh.data();
    }
    rq.stride = stride;
    spo.evaluate(rq, res);

    for (std::size_t i = 0; i < stride; ++i)
      ASSERT_EQ(one.v[0][i], batch.v[0][i]) << "v index " << i;
    if (!derivs)
      continue;
    for (std::size_t i = 0; i < 3 * stride; ++i)
      ASSERT_EQ(one.g[0][i], batch.g[0][i]) << "g index " << i;
    const std::size_t hn = hessian ? (aos ? 9 : 6) * stride : stride;
    for (std::size_t i = 0; i < hn; ++i)
      ASSERT_EQ(one.lh[0][i], batch.lh[0][i]) << "lh index " << i;
  }
}

template <typename T>
void expect_native_engines_one_is_batch_of_one()
{
  FacadeFixture<T> fx; // AoSoA tiles {16, 16, 12}: a remainder tile
  const Vec3<T> r = fx.positions.front();
  {
    SCOPED_TRACE("AoS");
    expect_one_is_batch_of_one(fx.aos, r, fx.soa.out_stride(), true);
  }
  {
    SCOPED_TRACE("SoA");
    expect_one_is_batch_of_one(fx.soa, r, fx.soa.out_stride(), false);
  }
  {
    SCOPED_TRACE("AoSoA");
    expect_one_is_batch_of_one(fx.aosoa, r, fx.aosoa.out_stride(), false);
  }
}

} // namespace

TEST(OrbitalSet, SinglePositionSugarIsTheBatchOfOne)
{
  {
    SCOPED_TRACE("float");
    expect_native_engines_one_is_batch_of_one<float>();
  }
  {
    SCOPED_TRACE("double");
    expect_native_engines_one_is_batch_of_one<double>();
  }
  FacadeFixture<float> fx;
  const Vec3<float> r = fx.positions.front();
  {
    SCOPED_TRACE("mixed SoA");
    const BsplineSoA<float, double> soa_mx(fx.coefs);
    expect_one_is_batch_of_one(soa_mx, r, soa_mx.out_stride(), false);
  }
  {
    SCOPED_TRACE("mixed AoSoA");
    const MultiBspline<float, double> aosoa_mx(*fx.coefs, kTile);
    expect_one_is_batch_of_one(aosoa_mx, r, aosoa_mx.out_stride(), false);
  }
}

// ---------------------------------------------------------------------------
// Capability surface: what drivers base their explicit schedule decision on.
// ---------------------------------------------------------------------------

TEST(OrbitalSet, CapabilitiesReportEngineFacts)
{
  FacadeFixture<float> fx;

  const auto aos = OrbitalSet<float>(fx.aos).capabilities();
  EXPECT_EQ(aos.layout, OrbitalLayout::AoS);
  EXPECT_FALSE(aos.native_multi_eval);
  EXPECT_EQ(aos.num_tiles, 1);
  EXPECT_EQ(aos.num_splines, kSplines);

  const auto soa = OrbitalSet<float>(fx.soa).capabilities();
  EXPECT_EQ(soa.layout, OrbitalLayout::SoA);
  EXPECT_TRUE(soa.native_multi_eval);
  EXPECT_EQ(soa.num_tiles, 1);
  EXPECT_EQ(soa.out_stride, fx.soa.out_stride());

  const auto aosoa = OrbitalSet<float>(fx.aosoa).capabilities();
  EXPECT_EQ(aosoa.layout, OrbitalLayout::AoSoA);
  EXPECT_TRUE(aosoa.native_multi_eval);
  EXPECT_EQ(aosoa.num_tiles, 3); // 44 splines in tiles of 16: 16 + 16 + 12
  EXPECT_EQ(aosoa.out_stride, fx.aosoa.out_stride());
}

TEST(OrbitalSet, TunedPosBlockIsAdvertisedAndHarmless)
{
  FacadeFixture<float> fx;
  OrbitalSet<float> spo(fx.aosoa);
  EXPECT_EQ(spo.capabilities().preferred_pos_block, 0);
  spo.set_pos_block(3);
  EXPECT_EQ(spo.capabilities().preferred_pos_block, 3);

  // A tuned block only reorders the sweep; outputs stay bit-identical.
  const std::size_t stride = fx.aosoa.out_stride();
  Outputs<float> ref(kBatch, stride, false, true);
  direct_eval(fx, Fam::AoSoA, DerivLevel::VGH, ref);
  Outputs<float> got(kBatch, stride, false, true);
  OrbitalResource<float> res;
  OrbitalEvalRequest<float> rq;
  rq.deriv = DerivLevel::VGH;
  rq.positions = fx.positions.data();
  rq.count = kBatch;
  rq.v = got.v.data();
  rq.g = got.g.data();
  rq.lh = got.lh.data();
  rq.stride = stride;
  spo.evaluate(rq, res); // rq.pos_block == 0 -> the tuned 3 applies
  for (std::size_t p = 0; p < static_cast<std::size_t>(kBatch); ++p)
    for (std::size_t i = 0; i < stride; ++i)
      ASSERT_EQ(ref.v[p][i], got.v[p][i]);
}

TEST(OrbitalSet, DefaultConstructedIsInvalid)
{
  OrbitalSet<float> spo;
  EXPECT_FALSE(spo.valid());
  FacadeFixture<float> fx;
  spo = OrbitalSet<float>(fx.soa);
  EXPECT_TRUE(spo.valid());
}

TEST(OrbitalSet, ResourceCapacityIsStickyAcrossShrinkingBatches)
{
  OrbitalResource<float> res;
  auto* w8 = res.weights_for(8);
  EXPECT_GE(res.weights.size(), 8u);
  auto* w3 = res.weights_for(3); // no shrink, no reallocation
  EXPECT_EQ(w8, w3);
  EXPECT_GE(res.weights.size(), 8u);
  res.resize_tables(5);
  EXPECT_EQ(res.v.size(), 5u);
  EXPECT_EQ(res.g.size(), 5u);
  EXPECT_EQ(res.lh.size(), 5u);
}

TEST(OrbitalSet, ZeroCountRequestIsANoOp)
{
  FacadeFixture<float> fx;
  OrbitalSet<float> spo(fx.aosoa);
  OrbitalResource<float> res;
  OrbitalEvalRequest<float> rq; // count == 0, null pointers
  spo.evaluate(rq, res);        // must not touch anything
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Mixed precision (SP storage, DP accumulation): BsplineSoA<float, double> /
// MultiBspline<float, double> behind the same facade.
//
// The exact oracle: a mixed engine reads float coefficients, upcasts each
// element, and accumulates in double with the SAME per-element term order as
// the plain kernel — so its float outputs must equal, BIT FOR BIT, the
// narrowed outputs of the plain DP engine run over the upcast
// (convert_storage<double>) copy of the same float table.  That turns every
// accuracy test below into an exact ASSERT_EQ, not a tolerance band.
// ---------------------------------------------------------------------------

namespace {

struct MixedFixture
{
  std::shared_ptr<CoefStorage<float>> coefs;  ///< the table both paths read
  std::shared_ptr<CoefStorage<double>> wide;  ///< its exact upcast (oracle input)
  BsplineSoA<float, double> soa_mx;
  MultiBspline<float, double> aosoa_mx;
  BsplineSoA<double> soa_dp;
  MultiBspline<double> aosoa_dp;
  std::vector<Vec3<float>> positions;
  std::vector<Vec3<double>> positions_dp; ///< identical coordinates, upcast

  // The float table is produced the way the drivers produce it — a wide
  // build narrowed through convert_storage — so its padding tail is zeroed
  // exactly like the upcast oracle table's.
  MixedFixture()
      : coefs(convert_storage<float>(
            *make_random_storage<double>(Grid3D<double>::cube(8, 1.0), kSplines, 404))),
        wide(convert_storage<double>(*coefs)), soa_mx(coefs), aosoa_mx(*coefs, kTile),
        soa_dp(wide), aosoa_dp(*wide, kTile)
  {
    Xoshiro256 rng(405);
    for (int p = 0; p < kBatch; ++p) {
      const auto x = static_cast<float>(rng.uniform());
      const auto y = static_cast<float>(rng.uniform());
      const auto z = static_cast<float>(rng.uniform());
      positions.push_back(Vec3<float>{x, y, z});
      positions_dp.push_back(Vec3<double>{x, y, z});
    }
  }
};

/// Facade request over prepared output pointer tables (both element types).
template <typename T, typename Engine>
void facade_eval(const Engine& engine, DerivLevel d, const std::vector<Vec3<T>>& positions,
                 Outputs<T>& out, std::size_t stride, int pos_block)
{
  OrbitalSet<T> spo(engine);
  OrbitalResource<T> res;
  OrbitalEvalRequest<T> rq;
  rq.deriv = d;
  rq.positions = positions.data();
  rq.count = static_cast<int>(positions.size());
  rq.v = out.v.data();
  if (d != DerivLevel::V) {
    rq.g = out.g.data();
    rq.lh = out.lh.data();
  }
  rq.stride = stride;
  rq.pos_block = pos_block;
  spo.evaluate(rq, res);
}

/// ASSERT the mixed float outputs equal the narrowed DP-oracle outputs, bit
/// for bit, across the full padded extent of every requested stream.
void expect_exact_oracle(const Outputs<float>& mixed, const Outputs<double>& oracle,
                         DerivLevel d, std::size_t stride)
{
  const bool hessian = d == DerivLevel::VGH;
  for (std::size_t p = 0; p < static_cast<std::size_t>(kBatch); ++p) {
    for (std::size_t i = 0; i < stride; ++i)
      ASSERT_EQ(mixed.v[p][i], static_cast<float>(oracle.v[p][i]))
          << "v @ position " << p << " index " << i;
    if (d == DerivLevel::V)
      continue;
    for (std::size_t i = 0; i < 3 * stride; ++i)
      ASSERT_EQ(mixed.g[p][i], static_cast<float>(oracle.g[p][i]))
          << "g @ position " << p << " index " << i;
    const std::size_t hn = hessian ? 6 * stride : stride;
    for (std::size_t i = 0; i < hn; ++i)
      ASSERT_EQ(mixed.lh[p][i], static_cast<float>(oracle.lh[p][i]))
          << "lh @ position " << p << " index " << i;
  }
}

} // namespace

TEST(MixedPrecision, SoASinglePositionMatchesWideOracleBitForBit)
{
  MixedFixture fx;
  const std::size_t stride = fx.soa_mx.out_stride();
  for (const auto d : {DerivLevel::V, DerivLevel::VGL, DerivLevel::VGH}) {
    SCOPED_TRACE(::testing::Message() << "deriv=" << static_cast<int>(d));
    Outputs<float> mixed(kBatch, stride, false, d == DerivLevel::VGH);
    Outputs<double> oracle(kBatch, stride, false, d == DerivLevel::VGH);
    for (std::size_t p = 0; p < static_cast<std::size_t>(kBatch); ++p) {
      const Vec3<float>& r = fx.positions[p];
      const Vec3<double>& rd = fx.positions_dp[p];
      if (d == DerivLevel::V) {
        fx.soa_mx.evaluate_v(r.x, r.y, r.z, mixed.v[p]);
        fx.soa_dp.evaluate_v(rd.x, rd.y, rd.z, oracle.v[p]);
      } else if (d == DerivLevel::VGL) {
        fx.soa_mx.evaluate_vgl(r.x, r.y, r.z, mixed.v[p], mixed.g[p], mixed.lh[p], stride);
        fx.soa_dp.evaluate_vgl(rd.x, rd.y, rd.z, oracle.v[p], oracle.g[p], oracle.lh[p], stride);
      } else {
        fx.soa_mx.evaluate_vgh(r.x, r.y, r.z, mixed.v[p], mixed.g[p], mixed.lh[p], stride);
        fx.soa_dp.evaluate_vgh(rd.x, rd.y, rd.z, oracle.v[p], oracle.g[p], oracle.lh[p], stride);
      }
    }
    expect_exact_oracle(mixed, oracle, d, stride);
  }
}

TEST(MixedPrecision, FacadeMatrixMatchesWideOracleBitForBit)
{
  // The full mixed matrix through the facade: SoA and AoSoA (remainder tile
  // in play by construction), V / VGL / VGH, position blocks P = 1, a
  // non-dividing P = 3, and the whole batch.  The oracle runs the SAME
  // facade path at DP over the upcast table, so multi-position scheduling,
  // tiling and remainder handling are compared like for like.
  MixedFixture fx;
  for (const bool tiled : {false, true})
    for (const auto d : {DerivLevel::V, DerivLevel::VGL, DerivLevel::VGH})
      for (const int pb : {1, 3, 0}) {
        SCOPED_TRACE(::testing::Message() << "tiled=" << tiled << " deriv=" << static_cast<int>(d)
                                          << " pos_block=" << pb);
        const std::size_t stride = tiled ? fx.aosoa_mx.out_stride() : fx.soa_mx.out_stride();
        Outputs<float> mixed(kBatch, stride, false, d == DerivLevel::VGH);
        Outputs<double> oracle(kBatch, stride, false, d == DerivLevel::VGH);
        if (tiled) {
          facade_eval(fx.aosoa_mx, d, fx.positions, mixed, stride, pb);
          facade_eval(fx.aosoa_dp, d, fx.positions_dp, oracle, stride, pb);
        } else {
          facade_eval(fx.soa_mx, d, fx.positions, mixed, stride, pb);
          facade_eval(fx.soa_dp, d, fx.positions_dp, oracle, stride, pb);
        }
        expect_exact_oracle(mixed, oracle, d, stride);
      }
}

TEST(MixedPrecision, UlpBoundedAgainstIndependentDpReference)
{
  // Accuracy against a DP build from the ORIGINAL samples (not the upcast of
  // the float table): the only error left in the mixed path is coefficient
  // storage narrowing, so every output must sit within a small ULP band of
  // the DP reference at each stream's own magnitude.  (The SP-native path
  // adds SP accumulation error on top; the mixed path must not.)
  const int ng = 12, n = 8;
  const auto pw = PlaneWaveOrbitals::make(n, Vec3<double>{1, 1, 1}, 3);
  const auto dp = build_planewave_storage(Grid3D<double>::cube(ng, 1.0), pw);
  const auto sp = convert_storage<float>(*dp);
  const BsplineSoA<double> ref(dp);
  const BsplineSoA<float, double> mx(sp);
  const std::size_t stride = ref.out_stride();
  WalkerSoA<double> r_out(stride);
  WalkerSoA<float> m_out(mx.out_stride());

  // Stream scales first (|v|, |g|, |h| magnitudes differ by ~2*pi factors).
  const auto pos = test::random_positions(Grid3D<double>::cube(ng, 1.0), 50, 9);
  double sv = 0, sg = 0, sh = 0;
  for (const auto& r : pos) {
    ref.evaluate_vgh(r[0], r[1], r[2], r_out.v.data(), r_out.g.data(), r_out.h.data());
    for (int k = 0; k < n; ++k) {
      const auto q = static_cast<std::size_t>(k);
      sv = std::max(sv, std::abs(r_out.v[q]));
      for (int d = 0; d < 3; ++d)
        sg = std::max(sg, std::abs(r_out.g[static_cast<std::size_t>(d) * stride + q]));
      for (int d = 0; d < 6; ++d)
        sh = std::max(sh, std::abs(r_out.h[static_cast<std::size_t>(d) * stride + q]));
    }
  }
  constexpr double kUlp = 1.1920928955078125e-7; // float epsilon
  constexpr double kMaxUlps = 64.0; // narrowing error budget: well under SP-native
  for (const auto& r : pos) {
    mx.evaluate_vgh(static_cast<float>(r[0]), static_cast<float>(r[1]), static_cast<float>(r[2]),
                    m_out.v.data(), m_out.g.data(), m_out.h.data());
    ref.evaluate_vgh(r[0], r[1], r[2], r_out.v.data(), r_out.g.data(), r_out.h.data());
    for (int k = 0; k < n; ++k) {
      const auto q = static_cast<std::size_t>(k);
      const auto mq = static_cast<std::size_t>(k);
      ASSERT_LE(std::abs(m_out.v[mq] - r_out.v[q]), kMaxUlps * kUlp * sv) << "v orbital " << k;
      for (int d = 0; d < 3; ++d)
        ASSERT_LE(std::abs(m_out.g[static_cast<std::size_t>(d) * mx.out_stride() + mq] -
                           r_out.g[static_cast<std::size_t>(d) * stride + q]),
                  kMaxUlps * kUlp * sg)
            << "g[" << d << "] orbital " << k;
      for (int d = 0; d < 6; ++d)
        ASSERT_LE(std::abs(m_out.h[static_cast<std::size_t>(d) * mx.out_stride() + mq] -
                           r_out.h[static_cast<std::size_t>(d) * stride + q]),
                  kMaxUlps * kUlp * sh)
            << "h[" << d << "] orbital " << k;
    }
  }
}

TEST(MixedPrecision, CapabilitiesSurfacePrecisionAndTableBytes)
{
  MixedFixture fx;
  FacadeFixture<float> nfx;

  const auto mx_soa = OrbitalSet<float>(fx.soa_mx).capabilities();
  EXPECT_EQ(mx_soa.precision, PrecisionPath::Mixed);
  EXPECT_EQ(mx_soa.layout, OrbitalLayout::SoA);
  EXPECT_TRUE(mx_soa.native_multi_eval);
  EXPECT_EQ(mx_soa.coef_table_bytes, fx.coefs->size_bytes());

  const auto mx_aosoa = OrbitalSet<float>(fx.aosoa_mx).capabilities();
  EXPECT_EQ(mx_aosoa.precision, PrecisionPath::Mixed);
  EXPECT_EQ(mx_aosoa.layout, OrbitalLayout::AoSoA);
  EXPECT_EQ(mx_aosoa.num_tiles, 3);
  EXPECT_EQ(mx_aosoa.coef_table_bytes, fx.aosoa_mx.coef_bytes());

  // Native engines surface Native + their own footprint.  At N = 44 both
  // element types pad to 48 lanes (16-float vs 8-double alignment), so the
  // DP build of the same logical table reports exactly twice the bytes.
  const auto nat = OrbitalSet<float>(nfx.soa).capabilities();
  EXPECT_EQ(nat.precision, PrecisionPath::Native);
  EXPECT_EQ(nat.coef_table_bytes, nfx.coefs->size_bytes());
  const auto dp = OrbitalSet<double>(fx.soa_dp).capabilities();
  EXPECT_EQ(dp.precision, PrecisionPath::Native);
  EXPECT_EQ(dp.coef_table_bytes, 2 * mx_soa.coef_table_bytes);
}

TEST(MixedPrecision, MixedIsDeterministicAcrossRepeatedCalls)
{
  // Same inputs -> same bits, call after call (no hidden state in the
  // blocked accumulation path).
  MixedFixture fx;
  const std::size_t stride = fx.soa_mx.out_stride();
  WalkerSoA<float> a(stride), b(stride);
  const Vec3<float>& r = fx.positions.front();
  fx.soa_mx.evaluate_vgh(r.x, r.y, r.z, a.v.data(), a.g.data(), a.h.data(), stride);
  fx.soa_mx.evaluate_vgh(r.x, r.y, r.z, b.v.data(), b.g.data(), b.h.data(), stride);
  for (std::size_t i = 0; i < stride; ++i)
    ASSERT_EQ(a.v[i], b.v[i]);
  for (std::size_t i = 0; i < 3 * stride; ++i)
    ASSERT_EQ(a.g[i], b.g[i]);
  for (std::size_t i = 0; i < 6 * stride; ++i)
    ASSERT_EQ(a.h[i], b.h[i]);
}
