// Figure 8: 16 B keys / 100 B values, Zipfian key choice (theta = 0.99, the
// YCSB default, as in the paper).
#include "bench/harness.h"
#include "common/fixed_bytes.h"

int main(int argc, char** argv) {
  using namespace jiffy;
  const auto cli = bench::parse_cli(argc, argv);
  bench::run_figure<Key16, Value100>("fig8", "16/100B",
                                     KeyChooser::Kind::Zipfian, cli);
  return 0;
}
