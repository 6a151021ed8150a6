#include "panda/array.h"

#include "util/error.h"

namespace panda {

void ArrayMeta::EncodeTo(Encoder& enc) const {
  enc.PutString(name);
  enc.Put<std::int64_t>(elem_size);
  enc.Put<std::uint8_t>(static_cast<std::uint8_t>(codec));
  memory.EncodeTo(enc);
  disk.EncodeTo(enc);
}

ArrayMeta ArrayMeta::Decode(Decoder& dec, bool with_codec) {
  ArrayMeta meta;
  meta.name = dec.GetString();
  meta.elem_size = dec.Get<std::int64_t>();
  PANDA_REQUIRE(meta.elem_size >= 1, "bad element size %lld",
                static_cast<long long>(meta.elem_size));
  if (with_codec) {
    const std::uint8_t codec = dec.Get<std::uint8_t>();
    PANDA_REQUIRE(IsValidCodecId(codec), "bad codec id %u in array metadata",
                  static_cast<unsigned>(codec));
    meta.codec = static_cast<CodecId>(codec);
  }
  meta.memory = Schema::Decode(dec);
  // The same rule as the Array constructor: planning asks the memory
  // schema for one cell per client, which CYCLIC cannot answer.
  PANDA_REQUIRE(!meta.memory.has_cyclic(),
                "CYCLIC memory schemas are not supported (disk only)");
  meta.disk = Schema::Decode(dec);
  PANDA_REQUIRE(meta.memory.array_shape() == meta.disk.array_shape(),
                "memory and disk schemas disagree on the array shape");
  return meta;
}

namespace {

Schema MakeSchema(const Shape& size, const ArrayLayout& layout,
                  std::vector<Distribution> dists) {
  return Schema(size, layout.mesh(), std::move(dists));
}

}  // namespace

Array::Array(std::string name, Shape size, std::int64_t elem_size,
             const ArrayLayout& memory_layout,
             std::vector<Distribution> memory_dist,
             const ArrayLayout& disk_layout,
             std::vector<Distribution> disk_dist)
    : Array(std::move(name), elem_size,
            MakeSchema(size, memory_layout, std::move(memory_dist)),
            MakeSchema(size, disk_layout, std::move(disk_dist))) {}

Array::Array(std::string name, std::int64_t elem_size, Schema memory,
             Schema disk) {
  PANDA_REQUIRE(!name.empty(), "array needs a name");
  PANDA_REQUIRE(elem_size >= 1, "element size must be positive");
  PANDA_REQUIRE(memory.array_shape() == disk.array_shape(),
                "memory and disk schemas must describe the same array");
  PANDA_REQUIRE(!memory.has_cyclic(),
                "CYCLIC memory schemas are not supported (disk only)");
  meta_.name = std::move(name);
  meta_.elem_size = elem_size;
  meta_.memory = std::move(memory);
  meta_.disk = std::move(disk);
}

void Array::BindClient(int client_pos, bool allocate) {
  PANDA_REQUIRE(client_pos >= 0 && client_pos < meta_.memory.mesh().size(),
                "client position %d out of range for a %d-node memory mesh",
                client_pos, meta_.memory.mesh().size());
  client_pos_ = client_pos;
  local_region_ = meta_.memory.CellRegion(client_pos);
  if (allocate) {
    data_.assign(
        static_cast<size_t>(local_region_.Volume() * meta_.elem_size),
        std::byte{0});
  } else {
    data_.clear();
  }
}

const Region& Array::local_region() const {
  PANDA_CHECK_MSG(bound(), "array %s is not bound to a client",
                  meta_.name.c_str());
  return local_region_;
}

std::span<std::byte> Array::local_data() {
  PANDA_CHECK_MSG(bound(), "array %s is not bound to a client",
                  meta_.name.c_str());
  return {data_.data(), data_.size()};
}

std::span<const std::byte> Array::local_data() const {
  PANDA_CHECK_MSG(bound(), "array %s is not bound to a client",
                  meta_.name.c_str());
  return {data_.data(), data_.size()};
}

}  // namespace panda
