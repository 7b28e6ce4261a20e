#include "seq/read.hpp"

#include <algorithm>

#include "util/pipeline_executor.hpp"

namespace ngs::seq {

ReadPass pass_over(const ReadSet& set, std::size_t workers,
                   std::size_t block) {
  workers = std::max<std::size_t>(1, workers);
  block = std::max<std::size_t>(1, block);
  return {workers, [&set, workers, block](const BatchWork& work) {
            struct Block {
              std::span<const Read> reads;
              BatchFold fold;
            };
            const std::span<const Read> all(set.reads);
            std::size_t next = 0;
            util::PipelineExecutor<Block> executor({.workers = workers});
            executor.run(
                [&](Block& b) {
                  if (next >= all.size()) return false;
                  b.reads = all.subspan(next, std::min(block, all.size() - next));
                  next += b.reads.size();
                  return true;
                },
                [&](Block& b, std::size_t worker) {
                  b.fold = work(b.reads, worker);
                },
                [](Block&& b) {
                  if (b.fold) b.fold();
                });
          }};
}

}  // namespace ngs::seq
