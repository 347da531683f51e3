// Connection-scale test for the epoll serving core: the server must
// sustain >= 10k concurrently connected idle sockets (the whole point
// of replacing thread-per-connection reads) and stay responsive while
// they sit there. The server runs as a `hopdb_cli serve` subprocess so
// its ~10k fds and this process's ~10k client fds draw on separate
// per-process fd limits. Needs HOPDB_CLI_BIN (set by CMake); skips
// otherwise. Under sanitizers the tier drops — the goal there is
// watching the event loop under churn, not the raw number.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "io/temp_dir.h"
#include "server/client.h"
#include "util/string_util.h"

namespace hopdb {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

int RunShell(const std::string& command) {
  const int rc = std::system((command + " >/dev/null 2>&1").c_str());
  return rc < 0 ? rc : WEXITSTATUS(rc);
}

/// A `hopdb_cli serve` child process whose stdout we can parse for the
/// announced port. Killed (SIGKILL) and reaped on destruction.
class ServeProcess {
 public:
  ~ServeProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (out_ >= 0) close(out_);
  }

  bool Start(const std::string& cli, const std::string& index_path) {
    int pipe_fds[2];
    if (pipe(pipe_fds) != 0) return false;
    pid_ = fork();
    if (pid_ < 0) {
      close(pipe_fds[0]);
      close(pipe_fds[1]);
      return false;
    }
    if (pid_ == 0) {
      dup2(pipe_fds[1], STDOUT_FILENO);
      close(pipe_fds[0]);
      close(pipe_fds[1]);
      execl(cli.c_str(), cli.c_str(), "serve", "--index", index_path.c_str(),
            "--port", "0", "--threads", "2", "--backlog", "4096",
            static_cast<char*>(nullptr));
      _exit(127);
    }
    close(pipe_fds[1]);
    out_ = pipe_fds[0];
    return true;
  }

  /// Parses the port from the "serving ... on HOST:PORT (...)" line.
  uint16_t ReadAnnouncedPort() {
    std::string line;
    char c;
    while (line.find('\n') == std::string::npos) {
      const ssize_t n = read(out_, &c, 1);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return 0;
      line += c;
    }
    const size_t colon = line.rfind(':');
    if (colon == std::string::npos) return 0;
    uint64_t port = 0;
    size_t pos = colon + 1;
    while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
      port = port * 10 + static_cast<uint64_t>(line[pos] - '0');
      ++pos;
    }
    return port > 0 && port < 65536 ? static_cast<uint16_t>(port) : 0;
  }

 private:
  pid_t pid_ = -1;
  int out_ = -1;
};

int ConnectIdle(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  while (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
         0) {
    if (errno == EINTR) continue;
    close(fd);
    return -1;
  }
  return fd;
}

TEST(ServerScaleTest, SustainsTenThousandIdleConnections) {
  const char* cli = std::getenv("HOPDB_CLI_BIN");
  if (cli == nullptr) {
    GTEST_SKIP() << "HOPDB_CLI_BIN not set (run through ctest)";
  }

  // Lift our fd limit to the hard cap; the serve child inherits it.
  rlimit limit{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &limit), 0);
  limit.rlim_cur = limit.rlim_max;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &limit), 0);

  // The headline number needs fd headroom in BOTH processes; leave a
  // margin for the binary's own files, the pipe, and the epoll/eventfd
  // plumbing.
  size_t target = kSanitized ? 2000 : 10500;
  if (limit.rlim_cur != RLIM_INFINITY) {
    const size_t ceiling =
        limit.rlim_cur > 512 ? static_cast<size_t>(limit.rlim_cur) - 512 : 0;
    if (ceiling < target) target = ceiling;
  }
  if (target < 1000) {
    GTEST_SKIP() << "fd limit too low for a connection-scale test: "
                 << limit.rlim_cur;
  }

  auto tmp = TempDir::Create("hopdb_scale");
  ASSERT_TRUE(tmp.ok()) << tmp.status();
  const std::string graph_path = tmp->path() + "/g.txt";
  const std::string index_path = tmp->path() + "/g.hopdb";
  const std::string cli_s(cli);
  ASSERT_EQ(RunShell(cli_s + " gen --type glp --n 150 --avg-degree 5"
                             " --seed 21 --out " + graph_path),
            0);
  ASSERT_EQ(RunShell(cli_s + " build --graph " + graph_path + " --out " +
                     index_path),
            0);

  ServeProcess server;
  ASSERT_TRUE(server.Start(cli_s, index_path));
  const uint16_t port = server.ReadAnnouncedPort();
  ASSERT_NE(port, 0) << "serve subprocess never announced a port";

  std::vector<int> fds;
  fds.reserve(target);
  for (size_t i = 0; i < target; ++i) {
    const int fd = ConnectIdle(port);
    if (fd < 0) break;
    fds.push_back(fd);
  }
  const size_t connected = fds.size();

  // With every idle socket still connected, the server answers queries
  // and its own count agrees with ours (+1 for the querying client). The
  // querying client can be accepted and answered while idle connections
  // still wait in the accept backlog, so STATS is polled until the count
  // reaches ours or 10 s pass.
  std::string stats;
  size_t reported = 0;
  {
    auto client = DistanceClient::Connect("127.0.0.1", port);
    ASSERT_TRUE(client.ok()) << client.status();
    EXPECT_EQ(*client->RoundTrip("PING"), "OK pong");
    EXPECT_EQ(*client->QueryDistance(0, 1), *client->QueryDistance(0, 1));
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (true) {
      stats = *client->RoundTrip("STATS");
      const size_t key = stats.find("open_connections=");
      if (key != std::string::npos) {
        reported = std::strtoull(
            stats.c_str() + key + strlen("open_connections="), nullptr, 10);
      }
      if (reported >= connected + 1 ||
          std::chrono::steady_clock::now() >= give_up) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_GE(reported, connected) << stats;

  for (const int fd : fds) close(fd);
  EXPECT_EQ(connected, target)
      << "only " << connected << " of " << target
      << " connections opened (errno of the first failure: "
      << std::strerror(errno) << ")";
  EXPECT_GE(connected, kSanitized ? 2000u : 10000u);
}

}  // namespace
}  // namespace hopdb
