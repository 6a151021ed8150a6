// Schema migration: the paper's data-consumer scenario.
//
// A parallel producer writes an array with natural chunking (fast for
// the producer). Later the data must move to a sequential machine in
// traditional row-major order. With Panda this is a read with one
// schema and a write with another — the rearrangement happens inside
// the collective i/o — after which concatenating the per-server files
// yields the sequential file.
//
//   ./examples/schema_migration [--dir=PATH]
#include <cstdio>
#include <cstring>
#include <vector>

#include "panda/panda.h"
#include "util/options.h"

using namespace panda;

namespace { int Run(int argc, char** argv) {
  Options opts(argc, argv);
  const std::string dir = opts.GetString("dir", "panda_migration_data");
  opts.CheckAllConsumed();

  const World world{8, 4};
  Machine machine = Machine::WithPosixFs(8, 4, Sp2Params::Nas(), dir);
  const Shape shape{32, 32, 32};

  machine.Run(
      [&](Endpoint& ep, int client_index) {
        PandaClient client(ep, world, machine.params());
        ArrayLayout memory("memory", {2, 2, 2});
        ArrayLayout disk_natural("natural", {2, 2, 2});
        ArrayLayout disk_traditional("traditional", {4});

        // 1. The producer's array: natural chunking on disk.
        Array chunked("field", shape, sizeof(float), memory,
                      {BLOCK, BLOCK, BLOCK}, disk_natural,
                      {BLOCK, BLOCK, BLOCK});
        chunked.BindClient(client_index);
        auto data = chunked.local_as<float>();
        const Region& cell = chunked.local_region();
        Index off = Index::Zeros(3);
        Shape ext = cell.extent();
        size_t n = 0;
        do {
          Index g = cell.lo();
          for (int d = 0; d < 3; ++d) g[d] += off[d];
          data[n++] = static_cast<float>(
              (g[0] * shape[1] + g[1]) * shape[2] + g[2]);
        } while (NextIndexRowMajor(ext, off));
        client.WriteArray(chunked);

        // 2. Migration: read back with the natural schema, write out
        // with a traditional-order schema. Same memory schema, so the
        // two handles share the client's data by rebinding.
        Array traditional("field_rowmajor", shape, sizeof(float), memory,
                          {BLOCK, BLOCK, BLOCK}, disk_traditional,
                          {BLOCK, NONE, NONE});
        traditional.BindClient(client_index);
        client.ReadArray(chunked);  // refresh from the chunked files
        std::memcpy(traditional.local_data().data(),
                    chunked.local_data().data(),
                    chunked.local_data().size());
        client.WriteArray(traditional);

        if (client_index == 0) client.Shutdown();
      },
      [&](Endpoint& ep, int server_index) {
        ServerMain(ep, machine.server_fs(server_index), world,
                   machine.params());
      });

  // 3. The sequential consumer: concatenate the per-server files.
  std::vector<std::byte> image;
  for (int s = 0; s < 4; ++s) {
    auto file = machine.server_fs(s).Open(
        store::ShardFileName("field_rowmajor.dat." + std::to_string(s), 0),
        OpenMode::kRead);
    const std::int64_t size = file->Size();
    std::vector<std::byte> part(static_cast<size_t>(size));
    file->ReadAt(0, {part.data(), part.size()}, size);
    image.insert(image.end(), part.begin(), part.end());
  }

  // Verify the concatenation is the row-major array.
  bool ok = image.size() == static_cast<size_t>(shape.Volume()) * 4;
  const auto* f = reinterpret_cast<const float*>(image.data());
  for (std::int64_t i = 0; ok && i < shape.Volume(); ++i) {
    if (f[i] != static_cast<float>(i)) ok = false;
  }
  std::printf("migration: natural-chunked -> traditional order across 4 i/o "
              "nodes\n");
  std::printf("  concatenation of %s/ionode{0..3}/field_rowmajor.dat.*.shard.0 "
              "is row-major: %s\n",
              dir.c_str(), ok ? "yes (verified)" : "NO");
  return ok ? 0 : 1;
}
}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
