// Plan memoization.
//
// A timestep stream builds the *same* plan for every collective (same
// schemas, same servers, same sub-chunk size). Planning is cheap but not
// free — region algebra over every piece of a server's whole IoPlan, or
// over a client's own pieces for its ClientView — and the paper's
// applications write thousands of timesteps. PlanCache memoizes both by
// the exact plan inputs; PandaClient keeps one for its views and
// ServerMain one for its plans, across collectives.
#pragma once

#include <list>
#include <map>
#include <memory>
#include <string>
#include <variant>

#include "panda/plan.h"

namespace panda {

class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 32) : capacity_(capacity) {}

  // Returns the memoized plan for these exact inputs, building it on a
  // miss. `active` may be null (whole-array plan). The returned plan is
  // immutable and remains valid independent of the cache's lifetime.
  std::shared_ptr<const IoPlan> Get(const ArrayMeta& meta, int num_servers,
                                    std::int64_t subchunk_bytes,
                                    const Region* active = nullptr);

  // The same for client `client`'s view of that plan.
  std::shared_ptr<const ClientView> GetClientView(const ArrayMeta& meta,
                                                  int num_servers,
                                                  std::int64_t subchunk_bytes,
                                                  const Region* active,
                                                  int client);

  size_t size() const { return entries_.size(); }
  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }

 private:
  using Entry = std::variant<std::shared_ptr<const IoPlan>,
                             std::shared_ptr<const ClientView>>;

  // `client` is -1 for a whole plan.
  static std::string KeyOf(const ArrayMeta& meta, int num_servers,
                           std::int64_t subchunk_bytes, const Region* active,
                           int client);
  template <typename T, typename Build>
  std::shared_ptr<const T> Memo(const std::string& key, Build&& build);

  size_t capacity_;
  std::map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recent
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace panda
