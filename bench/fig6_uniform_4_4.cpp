// Figure 6 (appendix twin: Figure 9): 4 B keys / 4 B values, uniform keys.
// This is the grid where the paper also includes KiWi (its codebase only
// supports 4 B integer keys); our KiWi proxy runs in every shape but is
// emitted here to match the figure.
#include "bench/harness.h"
#include "common/fixed_bytes.h"

int main(int argc, char** argv) {
  using namespace jiffy;
  const auto cli = bench::parse_cli(argc, argv);
  bench::run_figure<FixedBytes<4>, FixedBytes<4>>(
      "fig6", "4/4B", KeyChooser::Kind::Uniform, cli);
  return 0;
}
