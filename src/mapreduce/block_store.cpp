#include "mapreduce/block_store.hpp"

#include <algorithm>
#include <stdexcept>

namespace ngs::mapreduce {

BlockStore::BlockStore(std::size_t num_nodes, std::size_t replication,
                       std::size_t block_size)
    : replication_(std::min(replication, num_nodes)),
      block_size_(block_size) {
  if (num_nodes == 0 || replication == 0 || block_size == 0) {
    throw std::invalid_argument("BlockStore: zero-sized configuration");
  }
  nodes_.resize(num_nodes);
}

std::size_t BlockStore::pick_node(
    const std::vector<std::size_t>& exclude) const {
  for (std::size_t probe = 0; probe < nodes_.size(); ++probe) {
    cursor_ = (cursor_ + 1) % nodes_.size();
    if (!nodes_[cursor_].alive) continue;
    if (std::find(exclude.begin(), exclude.end(), cursor_) != exclude.end()) {
      continue;
    }
    return cursor_;
  }
  throw std::runtime_error("BlockStore: no eligible live node");
}

void BlockStore::write(const std::string& name, std::string_view data) {
  remove(name);
  std::vector<std::size_t> block_ids;
  for (std::size_t off = 0; off < data.size() || block_ids.empty();
       off += block_size_) {
    Block block;
    block.data = std::string(data.substr(off, block_size_));
    for (std::size_t r = 0; r < replication_; ++r) {
      const std::size_t node = pick_node(block.replicas);
      block.replicas.push_back(node);
    }
    block_ids.push_back(blocks_.size());
    blocks_.push_back(std::move(block));
    if (data.empty()) break;
  }
  files_[name] = std::move(block_ids);
}

bool BlockStore::exists(const std::string& name) const {
  return files_.count(name) != 0;
}

std::string BlockStore::read(const std::string& name) const {
  const auto it = files_.find(name);
  if (it == files_.end()) {
    throw std::runtime_error("BlockStore: no such file: " + name);
  }
  std::string out;
  for (const std::size_t b : it->second) {
    const Block& block = blocks_[b];
    const bool live = std::any_of(
        block.replicas.begin(), block.replicas.end(),
        [&](std::size_t node) { return nodes_[node].alive; });
    if (!live) {
      throw std::runtime_error("BlockStore: block lost (all replicas dead)");
    }
    out += block.data;
  }
  return out;
}

void BlockStore::remove(const std::string& name) {
  const auto it = files_.find(name);
  if (it == files_.end()) return;
  for (const std::size_t b : it->second) {
    blocks_[b].replicas.clear();
    blocks_[b].data.clear();
  }
  files_.erase(it);
}

void BlockStore::fail_node(std::size_t node) {
  nodes_.at(node).alive = false;
}

std::size_t BlockStore::rereplicate() {
  std::size_t created = 0;
  for (auto& block : blocks_) {
    if (block.data.empty() && block.replicas.empty()) continue;
    // Drop dead replicas.
    std::vector<std::size_t> live;
    for (const std::size_t node : block.replicas) {
      if (nodes_[node].alive) live.push_back(node);
    }
    if (live.empty()) continue;  // unrecoverable
    while (live.size() < replication_ && live.size() < live_nodes()) {
      const std::size_t node = pick_node(live);
      live.push_back(node);
      ++created;
    }
    block.replicas = std::move(live);
  }
  return created;
}

std::size_t BlockStore::live_nodes() const {
  std::size_t n = 0;
  for (const auto& node : nodes_) n += node.alive;
  return n;
}

}  // namespace ngs::mapreduce
