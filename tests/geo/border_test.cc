#include "geo/border.h"

#include <gtest/gtest.h>

namespace lockdown::geo {
namespace {

struct BorderCase {
  const char* name;
  world::GeoPoint point;
  bool inside;
};

// Without this gtest prints the raw bytes of the case, which include the
// address of `name`; that address moves with ASLR, so every listing of the
// suite would give the same cases new names.
void PrintTo(const BorderCase& c, std::ostream* os) { *os << c.name; }

class UsBorderTest : public ::testing::TestWithParam<BorderCase> {};

TEST_P(UsBorderTest, Contains) {
  const BorderCase& c = GetParam();
  EXPECT_EQ(UsBorder::Contains(c.point), c.inside) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Cities, UsBorderTest,
    ::testing::Values(
        BorderCase{"san-diego", {32.72, -117.16}, true},
        BorderCase{"ucsd-campus", {32.88, -117.24}, true},
        BorderCase{"new-york", {40.71, -74.01}, true},
        BorderCase{"chicago", {41.88, -87.63}, true},
        BorderCase{"miami", {25.76, -80.19}, true},
        BorderCase{"seattle", {47.61, -122.33}, true},
        BorderCase{"denver", {39.74, -104.99}, true},
        BorderCase{"anchorage-alaska", {61.22, -149.90}, true},
        BorderCase{"honolulu-hawaii", {21.31, -157.86}, true},
        BorderCase{"tijuana-mexico", {32.51, -117.04}, false},
        BorderCase{"vancouver-canada", {49.28, -123.12}, false},
        BorderCase{"toronto-canada", {43.65, -79.38}, false},
        BorderCase{"mexico-city", {19.43, -99.13}, false},
        BorderCase{"london", {51.51, -0.13}, false},
        BorderCase{"shanghai", {31.23, 121.47}, false},
        BorderCase{"seoul", {37.57, 126.98}, false},
        BorderCase{"mid-pacific", {35.0, -160.0}, false},
        BorderCase{"mid-atlantic", {35.0, -50.0}, false},
        BorderCase{"null-island", {0.0, 0.0}, false}),
    [](const ::testing::TestParamInfo<BorderCase>& param_info) {
      std::string name = param_info.param.name;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(PointInPolygon, Square) {
  const world::GeoPoint square[] = {{0, 0}, {0, 10}, {10, 10}, {10, 0}};
  EXPECT_TRUE(PointInPolygon({5, 5}, square));
  EXPECT_FALSE(PointInPolygon({15, 5}, square));
  EXPECT_FALSE(PointInPolygon({-1, 5}, square));
  EXPECT_FALSE(PointInPolygon({5, 11}, square));
}

TEST(PointInPolygon, Concave) {
  // A "U" shape: the notch is outside.
  const world::GeoPoint u[] = {{0, 0}, {10, 0}, {10, 3}, {3, 3},
                               {3, 7}, {10, 7}, {10, 10}, {0, 10}};
  EXPECT_TRUE(PointInPolygon({1, 5}, u));
  EXPECT_FALSE(PointInPolygon({8, 5}, u));
}

TEST(UsBorder, PolygonIsExposed) {
  EXPECT_GE(UsBorder::ConusPolygon().size(), 10u);
}

}  // namespace
}  // namespace lockdown::geo
