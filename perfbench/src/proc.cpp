#include "proc.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {

pid_t spawn(const std::vector<std::string>& argv, const std::string& stdout_path) {
    std::vector<char*> args;
    for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    const char* out = stdout_path.empty() ? "/dev/null" : stdout_path.c_str();
    posix_spawn_file_actions_addopen(&fa, 1, out, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&fa, 2, "/dev/null", O_WRONLY, 0);
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, args[0], &fa, nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) throw std::runtime_error("cannot start " + argv[0]);
    return pid;
}

child_exit wait_child(pid_t pid, double timeout_s) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_s);
    child_exit out;
    int status = 0;
    rusage ru{};
    while (true) {
        const pid_t r = wait4(pid, &status, WNOHANG, &ru);
        if (r == pid) break;
        if (r < 0) throw std::runtime_error("wait4 failed");
        if (std::chrono::steady_clock::now() > deadline) {
            kill(pid, SIGKILL);
            wait4(pid, &status, 0, &ru);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    out.exited = WIFEXITED(status);
    out.code = out.exited ? WEXITSTATUS(status) : 0;
    out.signal = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
    out.peak_rss_kb = ru.ru_maxrss;
    return out;
}

child_exit run_child(const std::vector<std::string>& argv, double timeout_s, const std::string& stdout_path) {
    return wait_child(spawn(argv, stdout_path), timeout_s);
}

void write_file(const std::string& path, const std::string& text) {
    std::ofstream f(path, std::ios::trunc);
    if (!(f << text)) throw std::runtime_error("cannot write " + path);
}

std::string read_file(const std::string& path) {
    std::ifstream f(path);
    std::ostringstream s;
    s << f.rdbuf();
    return s.str();
}

}  // namespace perfbench
