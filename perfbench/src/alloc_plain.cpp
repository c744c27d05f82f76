// The untraced program keeps the standard operator new and counts nothing.
#include "layers.hpp"

namespace perfbench {

std::uint64_t allocs_total() { return 0; }
std::uint64_t allocs_this_thread() { return 0; }

}  // namespace perfbench
