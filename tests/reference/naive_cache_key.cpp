#include "reference/naive_cache_key.hpp"

namespace bbng {
namespace {

void append_u32(std::string& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

}  // namespace

std::vector<Vertex> naive_player_in_neighbors(const Digraph& g, Vertex player) {
  std::vector<Vertex> in;
  for (Vertex w = 0; w < g.num_vertices(); ++w) {
    if (w != player && g.has_arc(w, player)) in.push_back(w);
  }
  return in;
}

std::string naive_cache_key(const Digraph& g, Vertex player, CostVersion version,
                            std::uint32_t budget_cap) {
  const std::uint32_t n = g.num_vertices();
  std::string key;
  key.push_back(version == CostVersion::Sum ? 'S' : 'M');
  append_u32(key, n);
  append_u32(key, player);
  append_u32(key, budget_cap);
  for (const Vertex w : naive_player_in_neighbors(g, player)) append_u32(key, w);
  key.push_back('|');
  for (Vertex u = 0; u < n; ++u) {
    if (u == player) continue;
    for (const Vertex v : g.out_neighbors(u)) {
      if (v == player) continue;
      append_u32(key, u);
      append_u32(key, v);
    }
  }
  return key;
}

}  // namespace bbng
