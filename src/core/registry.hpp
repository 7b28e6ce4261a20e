#pragma once
// String-keyed corrector factory — the single method-dispatch site in
// the repository. Tools, benches, and examples name a method and get a
// core::Corrector; adding a corrector means registering one factory
// here, not editing every dispatch chain.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/corrector.hpp"

namespace ngs::core {

struct MethodInfo {
  std::string name;         // registry key, e.g. "reptile"
  std::string description;  // one line for --method list output
};

using CorrectorFactory =
    std::function<std::unique_ptr<Corrector>(const CorrectorConfig&)>;

/// Registers a factory under info.name (replacing any previous entry, so
/// tests can shadow a builtin). Thread-safe.
void register_corrector(MethodInfo info, CorrectorFactory factory);

/// Instantiates the named method. Throws std::invalid_argument with the
/// list of known methods when the name is unknown.
std::unique_ptr<Corrector> make_corrector(const std::string& method,
                                          const CorrectorConfig& config = {});

/// All registered methods in registration order (builtins first).
std::vector<MethodInfo> registered_methods();

}  // namespace ngs::core
