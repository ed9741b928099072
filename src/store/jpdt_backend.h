// J-PDT backend (§5.1): the store's records live in a PStringHashMap from
// the J-PDT library with PRecord values. Hand-crafted crash consistency, no
// failure-atomic blocks — the fastest backend in Figure 7.
#ifndef JNVM_SRC_STORE_JPDT_BACKEND_H_
#define JNVM_SRC_STORE_JPDT_BACKEND_H_

#include "src/pdt/pmap.h"
#include "src/store/backend.h"
#include "src/store/precord.h"

namespace jnvm::store {

class JpdtBackend final : public Backend {
 public:
  // Binds to (or creates) the map registered under `root_name` in the
  // runtime's root map.
  JpdtBackend(core::JnvmRuntime* rt, const std::string& root_name = "store",
              uint64_t initial_capacity = 1024);

  std::string name() const override { return "J-PDT"; }
  size_t Size() override;
  bool SnapshotRecords(
      const std::function<void(const std::string&, const Record&)>& fn) override;

  pdt::PStringHashMap& map() { return *map_; }

 protected:
  bool DoPut(const std::string& key, const Record& r) override;
  bool DoGet(const std::string& key, Record* out) override;
  bool DoUpdateField(const std::string& key, size_t field,
                     const std::string& value) override;
  bool DoDelete(const std::string& key) override;
  // Proxy read: resurrect (or hit the proxy cache) and touch one field.
  bool DoTouch(const std::string& key) override;

 private:
  core::JnvmRuntime* rt_;
  core::Handle<pdt::PStringHashMap> map_;
};

}  // namespace jnvm::store

#endif  // JNVM_SRC_STORE_JPDT_BACKEND_H_
