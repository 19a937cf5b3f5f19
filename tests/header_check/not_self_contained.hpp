#pragma once
inline std::vector<int> seeded_not_self_contained() { return {}; }
