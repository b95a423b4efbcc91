#include "afxdp/umem.h"

#include <bit>
#include <stdexcept>

namespace ovsx::afxdp {

Umem::Umem(std::uint32_t chunk_count, std::uint32_t chunk_size, std::uint32_t ring_capacity)
    : chunk_count_(chunk_count), chunk_size_(chunk_size),
      buffer_(static_cast<std::size_t>(chunk_count) * chunk_size), fill_(ring_capacity),
      comp_(ring_capacity)
{
    if (chunk_count == 0 || chunk_size < 64 || !std::has_single_bit(chunk_size)) {
        throw std::invalid_argument("Umem: bad geometry");
    }
    chunk_shift_ = static_cast<std::uint32_t>(std::countr_zero(chunk_size));
    chunk_mask_ = chunk_size - 1;
}

void Umem::throw_bad_addr() { throw std::out_of_range("Umem: bad frame address"); }

} // namespace ovsx::afxdp
