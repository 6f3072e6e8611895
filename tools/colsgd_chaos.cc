// Deterministic chaos driver (DESIGN.md §10). For every seed in --seeds,
// model in --models and engine in --engines, draws the scenario's
// randomized fault schedule, runs it TWICE, and checks that the two runs
// agree bit-for-bit and that the scenario's invariants hold (chaos/chaos.h
// lists the five scenarios and src/chaos/{training,serving}.cc their
// invariants). A failing seed is shrunk to the components it needs and
// printed with a repro command that replays it exactly; the first one is
// also written as a JSON artifact (--artifact). Exit status: 0 when every
// seed passes, 1 when one fails, 2 for a bad invocation.
//
//   colsgd_chaos --seeds 0..31 --engines all
//   colsgd_chaos --seeds 17 --engines petuum --verbose
//   colsgd_chaos --scenario membership --seeds 0..15 --engines all
//   colsgd_chaos --scenario ssp --seeds 0..15 --engines all
//   colsgd_chaos --scenario serving --seeds 0..15 --models lr
//   colsgd_chaos --scenario serving_fleet --seeds 0..15 --models lr
#include "chaos/chaos.h"

int main(int argc, char** argv) { return colsgd::chaos::RunChaos(argc, argv); }
