#pragma once
// HDFS-lite (Sec. 1.3.1): an in-memory block store that splits files into
// fixed-size blocks, replicates each block across distinct simulated
// DataNodes, and keeps the block map in a NameNode-style index. Node
// failure drops all replicas on that node; a read succeeds while at
// least one live replica of every block remains.

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ngs::mapreduce {

class BlockStore {
 public:
  BlockStore(std::size_t num_nodes, std::size_t replication,
             std::size_t block_size);

  /// Writes (or overwrites) a file; blocks are placed round-robin with
  /// replicas on distinct nodes.
  void write(const std::string& name, std::string_view data);

  bool exists(const std::string& name) const;

  /// Reassembles a file from live replicas. Throws std::runtime_error if
  /// any block has lost all replicas.
  std::string read(const std::string& name) const;

  void remove(const std::string& name);

  /// Marks a DataNode dead (its replicas become unavailable).
  void fail_node(std::size_t node);

  /// Re-replicates under-replicated blocks onto live nodes, as the HDFS
  /// NameNode does after detecting a dead DataNode. Returns the number of
  /// new replicas created.
  std::size_t rereplicate();

  std::size_t num_nodes() const noexcept { return nodes_.size(); }
  std::size_t live_nodes() const;
  std::size_t total_blocks() const noexcept { return blocks_.size(); }

 private:
  struct Block {
    std::string data;
    std::vector<std::size_t> replicas;  // node ids
  };
  struct Node {
    bool alive = true;
  };

  std::size_t pick_node(const std::vector<std::size_t>& exclude) const;

  std::size_t replication_;
  std::size_t block_size_;
  std::vector<Node> nodes_;
  std::vector<Block> blocks_;
  std::unordered_map<std::string, std::vector<std::size_t>> files_;
  mutable std::size_t cursor_ = 0;  // round-robin placement
};

}  // namespace ngs::mapreduce
