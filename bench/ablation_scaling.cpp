// Extension bench: scaling to a 32-tile (8x4 mesh) CMP — the paper's
// conclusion expects the technique to matter more "for next-generation dense
// CMP architectures": longer average hop counts amplify the per-link latency
// advantage of the VL plane and the wire-inventory energy saving.
#include <cstdio>

#include "bench_util.hpp"

using namespace tcmp;

namespace {

cmp::CmpConfig sized(cmp::CmpConfig cfg, unsigned tiles) {
  cfg.with_tiles(tiles);
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = bench::parse_jobs(argc, argv);
  bench::print_header("Extension: 16-tile (4x4) vs 32-tile (8x4) CMP");

  const auto scheme = compression::SchemeConfig::dbrc(4, 2);
  const std::vector<const char*> names{"MP3D", "Unstructured", "FFT"};
  const std::vector<unsigned> sizes{16u, 32u};

  // Task grid: (app, tiles, base|het), merged in order below.
  struct Task {
    workloads::AppParams app;
    unsigned tiles;
    cmp::CmpConfig cfg;
  };
  std::vector<Task> grid;
  for (const char* name : names) {
    for (unsigned tiles : sizes) {
      grid.push_back({workloads::app(name), tiles,
                      sized(cmp::CmpConfig::baseline(), tiles)});
      grid.push_back({workloads::app(name), tiles,
                      sized(cmp::CmpConfig::heterogeneous(scheme), tiles)});
    }
  }
  const auto results = bench::parallel_sweep(
      grid.size(), jobs,
      [&](std::size_t i) { return bench::run_app(grid[i].app, grid[i].cfg); });

  TextTable t({"Application", "tiles", "exec het/base", "link ED2P het/base",
               "crit latency base", "het"});
  for (std::size_t i = 0; i < grid.size(); i += 2) {
    const auto& base = results[i];
    const auto& het = results[i + 1];
    t.add_row({grid[i].app.name, std::to_string(grid[i].tiles),
               TextTable::fmt(static_cast<double>(het.cycles.value()) /
                                  static_cast<double>(base.cycles.value()), 3),
               TextTable::fmt(het.link_ed2p() / base.link_ed2p(), 3),
               TextTable::fmt(base.avg_critical_latency, 1),
               TextTable::fmt(het.avg_critical_latency, 1)});
  }
  std::printf("%s\n", t.str().c_str());
  std::printf("With twice the tiles (and ~1.5x the average hop count), the same VL/B\n"
              "partition buys a larger share of the miss path — the trend behind the\n"
              "paper's closing claim about dense CMPs.\n");
  return 0;
}
