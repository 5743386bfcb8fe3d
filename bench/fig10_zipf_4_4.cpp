// Figure 10: 4 B keys / 4 B values, Zipfian key choice (KiWi included).
#include "bench/harness.h"
#include "common/fixed_bytes.h"

int main(int argc, char** argv) {
  using namespace jiffy;
  const auto cli = bench::parse_cli(argc, argv);
  bench::run_figure<FixedBytes<4>, FixedBytes<4>>(
      "fig10", "4/4B", KeyChooser::Kind::Zipfian, cli);
  return 0;
}
