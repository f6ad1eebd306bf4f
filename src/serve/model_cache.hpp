#pragma once
// Per-tenant model registry of the serving layer.
//
// A served model is a TuckerTensor plus everything the reconstruction fast
// path wants precomputed: the PrepackedFactor panels (staged exactly once,
// at registration) and the modeled RequestCost of one full reconstruction
// (priced once, charged by admission on every request). Entries are held
// by shared_ptr-to-const so a worker mid-reconstruction keeps its model
// alive even if the tenant unregisters it concurrently.
//
// Capacity: the cache is LRU-capped at `max_models` entries (default 0 =
// unbounded, the pre-cap behavior; ServeOptions::cache_models). Both
// find() and insert() count as use. Beyond the cap the least-recently-used
// model is dropped -- its packed panels freed once the last in-flight
// request releases its shared_ptr -- so a long-lived service with tenant
// churn stops accumulating pack bytes. A request naming an evicted id is
// refused at submit exactly like an unregistered one; the tenant
// re-registers and gets a fresh id (ids are never reused).

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "core/tucker_tensor.hpp"
#include "serve/admission.hpp"

namespace tucker::serve {

using ModelId = std::uint64_t;

/// A registered model with its prepacked factors and reconstruction price.
template <class T>
struct ServedModel {
  core::TuckerTensor<T> model;
  std::vector<tensor::PrepackedFactor<T>> packs;
  RequestCost cost;  // one full reconstruction
  std::size_t pack_bytes = 0;
};

template <class T>
class ModelCache {
 public:
  /// `max_models` caps the cache (0 = unbounded).
  explicit ModelCache(std::size_t max_models = 0) : max_models_(max_models) {}

  /// Registers a model: stages the factor panels, prices a reconstruction,
  /// returns the id reconstruction requests refer to. Ids are never reused.
  /// May evict the least-recently-used entry when the cache is at capacity.
  ModelId insert(core::TuckerTensor<T> m) {
    auto sm = std::make_shared<ServedModel<T>>();
    sm->model = std::move(m);
    sm->packs = core::prepack_factors(sm->model);
    sm->cost = reconstruct_cost(sm->model.core_dims(), sm->model.full_dims(),
                                sizeof(T));
    for (const auto& p : sm->packs) sm->pack_bytes += p.bytes();
    std::lock_guard<std::mutex> lk(mu_);
    const ModelId id = next_++;
    lru_.push_front(id);
    models_.emplace(id, Entry{std::move(sm), lru_.begin()});
    while (max_models_ > 0 && models_.size() > max_models_) {
      const ModelId victim = lru_.back();
      lru_.pop_back();
      models_.erase(victim);
      ++evictions_;
    }
    return id;
  }

  /// nullptr when the id is unknown (unregistered or evicted). A hit bumps
  /// the model to most-recently-used.
  std::shared_ptr<const ServedModel<T>> find(ModelId id) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = models_.find(id);
    if (it == models_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second.pos);
    return it->second.model;
  }

  bool erase(ModelId id) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = models_.find(id);
    if (it == models_.end()) return false;
    lru_.erase(it->second.pos);
    models_.erase(it);
    return true;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return models_.size();
  }

  /// LRU evictions performed so far (capacity-driven only; erase() is not
  /// counted).
  std::uint64_t evictions() const {
    std::lock_guard<std::mutex> lk(mu_);
    return evictions_;
  }

  std::size_t capacity() const { return max_models_; }

  /// Total bytes of staged panels + plain copies across the cache.
  std::size_t pack_bytes() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t total = 0;
    for (const auto& [id, e] : models_) total += e.model->pack_bytes;
    return total;
  }

 private:
  struct Entry {
    std::shared_ptr<const ServedModel<T>> model;
    std::list<ModelId>::iterator pos;
  };

  mutable std::mutex mu_;
  std::size_t max_models_;
  ModelId next_ = 1;
  std::uint64_t evictions_ = 0;
  mutable std::list<ModelId> lru_;  // front = most recently used
  std::map<ModelId, Entry> models_;
};

}  // namespace tucker::serve
