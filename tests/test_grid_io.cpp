#include "gen/grid_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "gen/random_layout.hpp"

namespace oar::gen {
namespace {

using hanan::HananGrid;
using hanan::Vertex;

HananGrid sample_grid() {
  util::Rng rng(12);
  RandomGridSpec spec;
  spec.h = 7;
  spec.v = 5;
  spec.m = 3;
  spec.min_pins = 4;
  spec.max_pins = 5;
  spec.min_obstacles = 4;
  spec.max_obstacles = 8;
  spec.min_edge_cost = 1;
  spec.max_edge_cost = 50;
  return random_grid(spec, rng);
}

TEST(GridIo, RoundTripPreservesEverything) {
  const HananGrid grid = sample_grid();
  std::stringstream buffer;
  ASSERT_TRUE(write_grid(grid, buffer));
  std::string error;
  const auto loaded = read_grid(buffer, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  EXPECT_EQ(loaded->h_dim(), grid.h_dim());
  EXPECT_EQ(loaded->v_dim(), grid.v_dim());
  EXPECT_EQ(loaded->m_dim(), grid.m_dim());
  EXPECT_DOUBLE_EQ(loaded->via_cost(), grid.via_cost());
  for (std::int32_t h = 0; h + 1 < grid.h_dim(); ++h) {
    EXPECT_DOUBLE_EQ(loaded->x_step(h), grid.x_step(h));
  }
  for (std::int32_t v = 0; v + 1 < grid.v_dim(); ++v) {
    EXPECT_DOUBLE_EQ(loaded->y_step(v), grid.y_step(v));
  }
  ASSERT_EQ(loaded->pins().size(), grid.pins().size());
  for (Vertex v = 0; v < grid.num_vertices(); ++v) {
    EXPECT_EQ(loaded->is_blocked(v), grid.is_blocked(v));
    EXPECT_EQ(loaded->is_pin(v), grid.is_pin(v));
  }
}

TEST(GridIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/grid_roundtrip.oargrid";
  const HananGrid grid = sample_grid();
  ASSERT_TRUE(save_grid(grid, path));
  std::string error;
  const auto loaded = load_grid(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->pins(), grid.pins());
  std::remove(path.c_str());
}

TEST(GridIo, CommentsAndBlankLinesIgnored) {
  std::stringstream in(
      "# a comment\n"
      "oargrid 1\n"
      "\n"
      "dims 2 2 1\n"
      "via 3\n"
      "xsteps 5\n"
      "ysteps 7\n"
      "pins 0 0 0 1 1 0\n"
      "blocked\n"
      "end\n");
  std::string error;
  const auto grid = read_grid(in, &error);
  ASSERT_TRUE(grid.has_value()) << error;
  EXPECT_EQ(grid->pins().size(), 2u);
  EXPECT_DOUBLE_EQ(grid->x_step(0), 5.0);
}

struct BadInputCase {
  const char* name;
  const char* text;
  const char* expected_error;
};

// Print a case by its name. gtest's default is a byte dump of the struct,
// i.e. of its string pointers, which move with the load address of every
// run and so made the listed test names differ from one build to the next.
void PrintTo(const BadInputCase& c, std::ostream* os) { *os << c.name; }

class GridIoBadInputTest : public ::testing::TestWithParam<BadInputCase> {};

TEST_P(GridIoBadInputTest, RejectsMalformedInput) {
  std::stringstream in(GetParam().text);
  std::string error;
  const auto grid = read_grid(in, &error);
  EXPECT_FALSE(grid.has_value());
  EXPECT_NE(error.find(GetParam().expected_error), std::string::npos)
      << "actual error: " << error;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GridIoBadInputTest,
    ::testing::Values(
        BadInputCase{"missing_header", "dims 2 2 1\nend\n", "header"},
        BadInputCase{"bad_version", "oargrid 9\nend\n", "version"},
        BadInputCase{"missing_end", "oargrid 1\ndims 2 2 1\nxsteps 1\nysteps 1\n",
                     "end"},
        BadInputCase{"missing_dims", "oargrid 1\nend\n", "dims"},
        BadInputCase{"bad_dims", "oargrid 1\ndims 0 2 1\nend\n", "dims"},
        BadInputCase{"step_count",
                     "oargrid 1\ndims 3 2 1\nxsteps 1\nysteps 1\nend\n",
                     "step count"},
        BadInputCase{"negative_step",
                     "oargrid 1\ndims 2 2 1\nxsteps -1\nysteps 1\nend\n",
                     "x step"},
        BadInputCase{"pin_range",
                     "oargrid 1\ndims 2 2 1\nxsteps 1\nysteps 1\npins 5 0 0\nend\n",
                     "out of range"},
        BadInputCase{"pin_on_block",
                     "oargrid 1\ndims 2 2 1\nxsteps 1\nysteps 1\n"
                     "blocked 0 0 0\npins 0 0 0\nend\n",
                     "blocked"},
        BadInputCase{"unknown_keyword",
                     "oargrid 1\ndims 2 2 1\nxsteps 1\nysteps 1\nwat\nend\n",
                     "unknown keyword"},
        BadInputCase{"partial_triple",
                     "oargrid 1\ndims 2 2 1\nxsteps 1\nysteps 1\npins 0 0\nend\n",
                     "bad pins"}),
    [](const ::testing::TestParamInfo<BadInputCase>& info) {
      return info.param.name;
    });

TEST(GridIo, LoadMissingFileFails) {
  std::string error;
  EXPECT_FALSE(load_grid("/nonexistent/file.oargrid", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace oar::gen
