// Child processes of the benchmark: the front-door binary run on hostile
// inputs, and the daemon of daemon-tenants. Every child is waited for.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

/// Starts `argv[0]` with the given arguments; stdout goes to `stdout_path`
/// (or /dev/null when empty), stderr to /dev/null. Throws on failure.
pid_t spawn(const std::vector<std::string>& argv, const std::string& stdout_path = {});

/// How a child ended.
struct child_exit {
    bool exited = false;  ///< exited normally (code valid)
    int code = 0;
    int signal = 0;       ///< terminating signal, 0 when none
    long peak_rss_kb = 0; ///< the child's own peak resident set
};

/// Waits for `pid`; after `timeout_s` seconds the child is killed (SIGKILL)
/// and waited for.
child_exit wait_child(pid_t pid, double timeout_s);

/// Runs a child to completion (spawn + wait_child).
child_exit run_child(const std::vector<std::string>& argv, double timeout_s,
                     const std::string& stdout_path = {});

/// Writes `text` to `path` (throws on failure).
void write_file(const std::string& path, const std::string& text);
/// Reads a whole file ("" when missing).
std::string read_file(const std::string& path);

}  // namespace perfbench
