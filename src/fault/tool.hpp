#pragma once
// The one entry point of every command-line tool in tools/: flag
// parsing, --help, fault arming and the exit-code ladder of DESIGN.md
// ("Tool exit codes"). It lives in ngs::fault, the lowest layer that can
// arm the fault registry.

#include <functional>

#include "util/cli.hpp"

namespace ngs::fault {

/// Runs one tool and returns its exit code:
///   - parses argv into `cli`: a parse error prints the message and the
///     usage on stderr and returns 2; --help prints the usage on stdout
///     and returns 0;
///   - when `cli` declares --fault-spec, arms the Registry from
///     $NGS_FAULT_SPEC and then from the flag;
///   - runs `body` and returns 0 when it returns. Anything it throws
///     becomes one "<program>: <what>" line on stderr: ngs::Error exits
///     with tool_exit_code(kind), std::invalid_argument with 2 and any
///     other std::exception with 1 ("internal error: <what>").
int run_tool(util::CliParser& cli, int argc, const char* const* argv,
             const std::function<void()>& body);

}  // namespace ngs::fault
