#include "fault/tool.hpp"

#include <exception>
#include <iostream>
#include <stdexcept>

#include "fault/fault.hpp"
#include "util/error.hpp"

namespace ngs::fault {

int run_tool(util::CliParser& cli, int argc, const char* const* argv,
             const std::function<void()>& body) {
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << "\n" << cli.usage();
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.usage();
    return 0;
  }
  const std::string& tool = cli.program();
  try {
    if (cli.declares("fault-spec")) {
      // The flag augments or overrides the environment's spec site by
      // site, before the body does any I/O.
      Registry::instance().configure_from_env();
      Registry::instance().configure(cli.get("fault-spec"));
    }
    body();
    return 0;
  } catch (const Error& e) {
    std::cerr << tool << ": " << e.what() << "\n";
    return tool_exit_code(e.kind());
  } catch (const std::invalid_argument& e) {
    std::cerr << tool << ": " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << tool << ": internal error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace ngs::fault
