#include "seq/alphabet.hpp"

#include <cassert>

namespace ngs::seq {

std::string reverse_complement(std::string_view s) {
  std::string out;
  out.resize(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    out[s.size() - 1 - i] = complement_base(s[i]);
  }
  return out;
}

std::size_t hamming_distance(std::string_view a, std::string_view b) {
  assert(a.size() == b.size());
  std::size_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) d += (a[i] != b[i]);
  return d;
}

}  // namespace ngs::seq
