#include "src/server/kv_map.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace jnvm::server {

namespace {

uint32_t U32At(std::string_view bytes, size_t off) {
  uint32_t v;
  std::memcpy(&v, bytes.data() + off, sizeof(v));
  return v;
}

uint32_t MaxFieldLen(const store::Record& r) {
  size_t cap = 1;
  for (const std::string& f : r.fields) {
    cap = std::max(cap, f.size());
  }
  return static_cast<uint32_t>(cap);
}

}  // namespace

// ---- KvEntry -------------------------------------------------------------------

const core::ClassInfo* KvEntry::Class() {
  static const core::ClassInfo* info =
      RegisterClass(core::MakeClassInfo<KvEntry>("jnvm.server.KvEntry"));
  return info;
}

KvEntry::KvEntry(core::JnvmRuntime& rt, std::string_view image) {
  // Leaf class whose image covers every byte it will ever read: skip the
  // voiding and write the image block by block.
  AllocatePersistent(rt, Class(), image.size(), /*zero=*/false);
  WriteBytesField(0, image.data(), image.size());
  PwbField(0, image.size());
}

void KvEntry::EncodeImage(std::string_view key, const store::Record& r,
                          uint32_t field_capacity, std::string* out) {
  const uint32_t key_len = static_cast<uint32_t>(key.size());
  const uint32_t n = static_cast<uint32_t>(r.fields.size());
  const size_t stride = 4ull + field_capacity;
  out->assign(kKeyOff + key.size() + n * stride, '\0');
  char* p = out->data();
  std::memcpy(p + kKeyLenOff, &key_len, 4);
  std::memcpy(p + kNumFieldsOff, &n, 4);
  std::memcpy(p + kFieldCapOff, &field_capacity, 4);
  std::memcpy(p + kKeyOff, key.data(), key.size());
  char* cell = p + kKeyOff + key.size();
  for (const std::string& f : r.fields) {
    JNVM_CHECK(f.size() <= field_capacity);
    const uint32_t len = static_cast<uint32_t>(f.size());
    std::memcpy(cell, &len, 4);
    std::memcpy(cell + 4, f.data(), f.size());
    cell += stride;
  }
}

bool KvEntry::ParseImage(std::string_view payload, Image* out) {
  if (payload.size() < kKeyOff) {
    return false;
  }
  const uint32_t key_len = U32At(payload, kKeyLenOff);
  out->nfields = U32At(payload, kNumFieldsOff);
  out->field_capacity = U32At(payload, kFieldCapOff);
  const size_t cells =
      static_cast<size_t>(out->nfields) * (4ull + out->field_capacity);
  if (payload.size() - kKeyOff < key_len ||
      payload.size() - kKeyOff - key_len < cells) {
    return false;
  }
  out->key = payload.substr(kKeyOff, key_len);
  out->cells = payload.substr(kKeyOff + key_len, cells);
  return true;
}

std::string_view KvEntry::Image::Field(size_t i) const {
  const size_t off = i * (4ull + field_capacity);
  const uint32_t len = U32At(cells, off);
  JNVM_CHECK(len <= field_capacity);
  return cells.substr(off + 4, len);
}

size_t KvEntry::ImageBytes() const {
  return kKeyOff + ReadField<uint32_t>(kKeyLenOff) +
         static_cast<size_t>(NumFields()) * (4ull + FieldCapacity());
}

std::string KvEntry::Key() const {
  std::string key(ReadField<uint32_t>(kKeyLenOff), '\0');
  ReadBytesField(kKeyOff, key.data(), key.size());
  return key;
}

store::Record KvEntry::ToRecord() const {
  // One bulk read of the image, then parse in DRAM.
  std::string image(ImageBytes(), '\0');
  ReadBytesField(0, image.data(), image.size());
  Image im;
  JNVM_CHECK(ParseImage(image, &im));
  store::Record r;
  r.fields.reserve(im.nfields);
  for (uint32_t i = 0; i < im.nfields; ++i) {
    r.fields.emplace_back(im.Field(i));
  }
  return r;
}

void KvEntry::SetField(size_t i, std::string_view value) {
  JNVM_CHECK(i < NumFields());
  JNVM_CHECK(value.size() <= FieldCapacity());
  const size_t off = FieldOff(i);
  std::string cell(4 + value.size(), '\0');
  const uint32_t len = static_cast<uint32_t>(value.size());
  std::memcpy(cell.data(), &len, 4);
  std::memcpy(cell.data() + 4, value.data(), value.size());
  WriteBytesField(off, cell.data(), cell.size());
  PwbField(off, cell.size());
}

// ---- KvMap ---------------------------------------------------------------------

const core::ClassInfo* KvMap::Class() {
  static const core::ClassInfo* info = RegisterClass(
      core::MakeClassInfo<KvMap>("jnvm.server.KvMap", &KvMap::TraceFn));
  return info;
}

void KvMap::TraceFn(core::ObjectView& view, core::RefVisitor& v) {
  v.VisitRef(view, kArrOff);
}

KvMap::KvMap(core::JnvmRuntime& rt, uint64_t initial_capacity) {
  AllocatePersistent(rt, Class(), 8);
  auto arr = std::make_shared<core::PRefArray>(rt, std::max<uint64_t>(1, initial_capacity));
  arr->Validate();
  WritePObject(kArrOff, arr.get());
  PwbField(kArrOff, 8);
  arr_ = std::move(arr);
  for (uint64_t i = arr_->capacity(); i > 0; --i) {
    free_slots_.push_back(i - 1);
  }
}

core::Handle<KvMap> KvMap::OpenOrCreate(core::JnvmRuntime& rt,
                                        const std::string& root_name,
                                        uint64_t initial_capacity) {
  if (const core::Handle<core::PObject> obj = rt.root().Get(root_name)) {
    auto map = std::dynamic_pointer_cast<KvMap>(obj);
    JNVM_CHECK_MSG(map != nullptr, "root binding does not hold a server KvMap");
    return map;
  }
  auto map = std::make_shared<KvMap>(rt, initial_capacity);
  map->Pwb();
  rt.root().Put(root_name, map.get());
  return map;
}

void KvMap::Resurrect_() {
  arr_ = ReadPObjectAs<core::PRefArray>(kArrOff);
  mirror_.clear();
  free_slots_.clear();
  const uint64_t cap = arr_->capacity();
  // The cells in chunks (one device read per array block), then each live
  // entry's first block for its key.
  constexpr uint64_t kChunk = 4096;
  std::vector<nvm::Offset> cells(std::min(cap, kChunk));
  for (uint64_t first = 0; first < cap; first += kChunk) {
    const uint64_t n = std::min(kChunk, cap - first);
    arr_->GetRawRange(first, n, cells.data());
    for (uint64_t j = 0; j < n; ++j) {
      if (cells[j] == 0) {
        free_slots_.push_back(first + j);
        continue;
      }
      ReadChainRaw(cells[j], /*key_only=*/true, &payload_);
      const uint32_t key_len = U32At(payload_, KvEntry::kKeyLenOff);
      mirror_[payload_.substr(KvEntry::kKeyOff, key_len)] = first + j;
    }
  }
  size_.store(mirror_.size(), std::memory_order_relaxed);
}

void KvMap::ReadChainRaw(nvm::Offset master, bool key_only, std::string* payload) {
  heap::Heap& h = heap();
  const uint32_t bs = h.block_size();
  const size_t ppb = h.payload_per_block();
  block_.resize(bs);
  payload->clear();
  size_t want = SIZE_MAX;
  for (nvm::Offset b = master; b != 0 && payload->size() < want;) {
    h.dev().ReadBytes(b, block_.data(), bs);  // header and payload together
    uint64_t word;
    std::memcpy(&word, block_.data(), sizeof(word));
    payload->append(block_.data() + heap::kBlockHeaderBytes, ppb);
    if (key_only && b == master) {
      want = KvEntry::kKeyOff + U32At(*payload, KvEntry::kKeyLenOff);
    }
    const heap::BlockHeader hdr = heap::BlockHeader::Unpack(word);
    b = hdr.next == 0 ? 0 : h.BlockOffset(hdr.next);
  }
}

uint64_t KvMap::TakeSlot() {
  if (free_slots_.empty()) {
    // §4.1.6 extension: copy the cells into a doubled array and swap the
    // reference atomically; the old array is freed once the swap is durable.
    core::JnvmRuntime& rt = runtime();
    const uint64_t old_cap = arr_->capacity();
    auto bigger = std::make_shared<core::PRefArray>(rt, old_cap * 2);
    for (uint64_t i = 0; i < old_cap; ++i) {
      bigger->SetRaw(i, arr_->GetRaw(i));
    }
    UpdateRefAndFreeOld(kArrOff, bigger.get());
    arr_ = std::move(bigger);
    for (uint64_t i = old_cap * 2; i > old_cap; --i) {
      free_slots_.push_back(i - 1);
    }
  }
  const uint64_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void KvMap::Publish(uint64_t slot, const std::string& key, const store::Record& r,
                    nvm::Offset old) {
  core::JnvmRuntime& rt = runtime();
  KvEntry::EncodeImage(key, r, MaxFieldLen(r), &image_);
  KvEntry entry(rt, image_);
  entry.Validate();
  Pfence();                         // the entry durable …
  arr_->SetRaw(slot, entry.addr());  // … before the single publishing write
  DurabilityFence();                // … and the publication durable on return
  if (old != 0) {
    // Outside group commit the fence above made the swing durable; under
    // it the free waits for the batch Psync (DrainGroupFrees), and inside
    // a failure-atomic block for the commit.
    rt.FreeRef(old);
  }
}

bool KvMap::Touch(const std::string& key) {
  gets_.fetch_add(1, std::memory_order_relaxed);
  if (!Contains(key)) {
    get_misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

bool KvMap::Put(const std::string& key, const store::Record& r) {
  puts_.fetch_add(1, std::memory_order_relaxed);
  bytes_written_.fetch_add(r.TotalBytes(), std::memory_order_relaxed);
  const auto it = mirror_.find(key);
  if (it != mirror_.end()) {
    Publish(it->second, key, r, arr_->GetRaw(it->second));
    return false;
  }
  const uint64_t slot = TakeSlot();
  Publish(slot, key, r, 0);
  mirror_.emplace(key, slot);
  size_.store(mirror_.size(), std::memory_order_relaxed);
  return true;
}

bool KvMap::AppendBulkValue(const std::string& key, std::string* reply) {
  JNVM_DCHECK(runtime().FaDepth() == 0);
  gets_.fetch_add(1, std::memory_order_relaxed);
  const auto it = mirror_.find(key);
  if (it == mirror_.end()) {
    get_misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  ReadChainRaw(arr_->GetRaw(it->second), /*key_only=*/false, &payload_);
  KvEntry::Image im;
  JNVM_CHECK_MSG(KvEntry::ParseImage(payload_, &im), "corrupt KvEntry image");
  size_t total = 0;
  for (uint32_t i = 0; i < im.nfields; ++i) {
    total += im.Field(i).size();
  }
  // RESP bulk string: $<len>\r\n<fields joined>\r\n
  reply->push_back('$');
  reply->append(std::to_string(total));
  reply->append("\r\n");
  for (uint32_t i = 0; i < im.nfields; ++i) {
    reply->append(im.Field(i));
  }
  reply->append("\r\n");
  bytes_read_.fetch_add(total, std::memory_order_relaxed);
  return true;
}

bool KvMap::Read(const std::string& key, store::Record* out) {
  gets_.fetch_add(1, std::memory_order_relaxed);
  const auto it = mirror_.find(key);
  if (it == mirror_.end()) {
    get_misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  *out = runtime().ResurrectRefAs<KvEntry>(arr_->GetRaw(it->second))->ToRecord();
  bytes_read_.fetch_add(out->TotalBytes(), std::memory_order_relaxed);
  return true;
}

bool KvMap::UpdateField(const std::string& key, size_t field, std::string_view value) {
  updates_.fetch_add(1, std::memory_order_relaxed);
  const auto it = mirror_.find(key);
  if (it == mirror_.end()) {
    return false;
  }
  core::JnvmRuntime& rt = runtime();
  const nvm::Offset ref = arr_->GetRaw(it->second);
  const auto entry = rt.ResurrectRefAs<KvEntry>(ref);
  if (field >= entry->NumFields()) {
    return false;
  }
  const size_t ppb = rt.heap().payload_per_block();
  const size_t off = entry->FieldOff(field);
  const size_t span = (off + 4 + value.size() - 1) / ppb - off / ppb + 1;
  if (value.size() <= entry->FieldCapacity() && span <= kInPlaceMaxBlocks) {
    core::FaBlock fa(rt);  // a cell spans lines: commit makes it old-or-new
    entry->SetField(field, value);
  } else {
    store::Record full = entry->ToRecord();
    full.fields[field] = std::string(value);
    Publish(it->second, key, full, ref);
  }
  bytes_written_.fetch_add(value.size(), std::memory_order_relaxed);
  return true;
}

bool KvMap::Remove(const std::string& key) {
  const auto it = mirror_.find(key);
  if (it == mirror_.end()) {
    return false;
  }
  const uint64_t slot = it->second;
  const nvm::Offset ref = arr_->GetRaw(slot);
  arr_->SetRaw(slot, 0);
  // The unlink durable before the entry's blocks can be reused. Under group
  // commit the free is deferred past the batch Psync, so this elides.
  DurabilityFence();
  runtime().FreeRef(ref);
  mirror_.erase(it);
  free_slots_.push_back(slot);
  size_.store(mirror_.size(), std::memory_order_relaxed);
  deletes_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void KvMap::ForEachKey(const std::function<void(const std::string&)>& fn) const {
  for (const auto& [key, slot] : mirror_) {
    fn(key);
  }
}

void KvMap::ForEachRecordIf(
    const std::function<bool(const std::string&)>& want,
    const std::function<void(const std::string&, const store::Record&)>& fn) {
  core::JnvmRuntime& rt = runtime();
  for (const auto& [key, slot] : mirror_) {
    if (!want || want(key)) {
      fn(key, rt.ResurrectRefAs<KvEntry>(arr_->GetRaw(slot))->ToRecord());
    }
  }
}

size_t KvMap::ForEachPersisted(
    const std::function<void(const std::string&, const store::Record&)>& fn) {
  core::JnvmRuntime& rt = runtime();
  const uint64_t cap = arr_->capacity();
  size_t occupied = 0;
  for (uint64_t i = 0; i < cap; ++i) {
    const nvm::Offset ref = arr_->GetRaw(i);
    if (ref == 0) {
      continue;
    }
    ++occupied;
    const auto entry = rt.ResurrectRefAs<KvEntry>(ref);
    fn(entry->Key(), entry->ToRecord());
  }
  return occupied;
}

KvOpStats KvMap::stats() const {
  KvOpStats s;
  s.puts = puts_.load(std::memory_order_relaxed);
  s.gets = gets_.load(std::memory_order_relaxed);
  s.get_misses = get_misses_.load(std::memory_order_relaxed);
  s.updates = updates_.load(std::memory_order_relaxed);
  s.deletes = deletes_.load(std::memory_order_relaxed);
  s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace jnvm::server
