// Load client: one single-threaded process that replays generated
// request lines into a running fo2dtd over N connections (one tenant per
// connection) and records, per request, when it was due, when it was
// written, and when its response line was read.
//
//   closed loop: each connection keeps one request in flight; its next
//                request is due the moment the previous response is read.
//   open loop:   seeded Poisson arrivals at a fixed rate; each request is
//                due at its scheduled time whatever the daemon is doing.
//
// Output, one line per request sent:
//   <index> <conn> <due_ns> <send_ns> <recv_ns or -1> <response line>
// with times relative to the client's start.

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "perf.h"

namespace fo2dt::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

struct Pending {
  size_t line = 0;  // index into the request file
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t recv_ns = -1;
  std::string response;
};

struct Conn {
  int fd = -1;
  std::string inbox;
  std::vector<size_t> queue;  // closed loop: this connection's lines, in order
  size_t next = 0;
};

int ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool WriteAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// The "id" echoed in a response line; -1 when absent.
long long ResponseId(const std::string& line) {
  static const std::string kKey = "\"id\":\"";
  size_t at = line.find(kKey);
  if (at == std::string::npos) return -1;
  return std::atoll(line.c_str() + at + kKey.size());
}

}  // namespace

int RunDrive(const DriveOptions& opt) {
  std::vector<RequestRecord> requests;
  if (!ReadRequestFile(opt.requests_path, &requests)) {
    std::fprintf(stderr, "drive: cannot read %s\n", opt.requests_path.c_str());
    return 2;
  }
  std::vector<Conn> conns(opt.conns);
  for (Conn& c : conns) {
    c.fd = ConnectUnix(opt.socket_path);
    if (c.fd < 0) {
      std::fprintf(stderr, "drive: connect %s: %s\n", opt.socket_path.c_str(),
                   std::strerror(errno));
      return 2;
    }
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].conn >= conns.size()) {
      std::fprintf(stderr, "drive: request %zu names connection %zu of %zu\n",
                   i, requests[i].conn, conns.size());
      return 2;
    }
    conns[requests[i].conn].queue.push_back(i);
  }

  // Open-loop schedule: exponential gaps from the seed, as long as it fits
  // in the run.
  const int64_t run_ns = static_cast<int64_t>(opt.seconds * 1e9);
  std::vector<int64_t> schedule;
  if (opt.open_loop) {
    RandomSource rng(opt.seed ^ 0x5eed5eedULL);
    double t = 0;
    for (size_t i = 0; i < requests.size(); ++i) {
      t += -std::log(1.0 - rng.UniformDouble()) / opt.rate * 1e9;
      if (t >= static_cast<double>(run_ns)) break;
      schedule.push_back(static_cast<int64_t>(t));
    }
  }

  std::vector<Pending> sent;
  sent.reserve(opt.open_loop ? schedule.size() : 4096);
  std::map<long long, size_t> by_id;  // request index -> position in sent
  size_t outstanding = 0;
  const Clock::time_point start = Clock::now();
  auto now_ns = [&start] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start)
        .count();
  };
  auto send = [&](size_t line, int64_t due) -> bool {
    const RequestRecord& r = requests[line];
    Pending p;
    p.line = line;
    p.due_ns = due;
    p.send_ns = now_ns();
    if (!WriteAll(conns[r.conn].fd, r.line + "\n")) return false;
    by_id[static_cast<long long>(r.index)] = sent.size();
    sent.push_back(std::move(p));
    ++outstanding;
    return true;
  };

  bool send_failed = false;
  if (!opt.open_loop) {
    for (Conn& c : conns) {
      if (c.next < c.queue.size() && !send(c.queue[c.next++], 0)) send_failed = true;
    }
  }
  size_t next_scheduled = 0;
  // Answers still missing this long after sending stopped count as failed.
  const int64_t drain_limit_ns = run_ns + 30'000'000'000LL;
  std::vector<pollfd> fds(conns.size());
  for (size_t i = 0; i < conns.size(); ++i) {
    fds[i].fd = conns[i].fd;
    fds[i].events = POLLIN;
  }
  char chunk[65536];
  while (!send_failed) {
    int64_t now = now_ns();
    if (opt.open_loop) {
      while (next_scheduled < schedule.size() && schedule[next_scheduled] <= now) {
        if (!send(next_scheduled, schedule[next_scheduled])) {
          send_failed = true;
          break;
        }
        ++next_scheduled;
      }
    }
    bool sending = opt.open_loop ? next_scheduled < schedule.size()
                                 : now < run_ns;
    if (!opt.open_loop) {
      bool left = false;
      for (const Conn& c : conns) left = left || c.next < c.queue.size();
      sending = sending && left;
    }
    if (!sending && outstanding == 0) break;
    if (now > drain_limit_ns) break;
    // Sleep in poll until shortly before the next due send, then spin: the
    // kernel's timer slack would otherwise make every send late.
    int64_t wait_ns = drain_limit_ns - now;
    if (opt.open_loop && next_scheduled < schedule.size()) {
      wait_ns = schedule[next_scheduled] - now - 60000;
    }
    timespec ts{};
    if (wait_ns > 0) {
      ts.tv_sec = static_cast<time_t>(wait_ns / 1000000000);
      ts.tv_nsec = static_cast<long>(wait_ns % 1000000000);
    }
    int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    for (size_t ci = 0; ci < conns.size(); ++ci) {
      if ((fds[ci].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = conns[ci];
      ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
        std::fprintf(stderr, "drive: connection %zu closed by the daemon\n", ci);
        send_failed = true;
        break;
      }
      const int64_t recv_ns = now_ns();
      c.inbox.append(chunk, static_cast<size_t>(n));
      size_t nl;
      while ((nl = c.inbox.find('\n')) != std::string::npos) {
        std::string line = c.inbox.substr(0, nl);
        c.inbox.erase(0, nl + 1);
        auto it = by_id.find(ResponseId(line));
        if (it == by_id.end()) {
          std::fprintf(stderr, "drive: unmatched response %s\n", line.c_str());
          continue;
        }
        Pending& p = sent[it->second];
        by_id.erase(it);
        p.recv_ns = recv_ns;
        p.response = std::move(line);
        --outstanding;
        if (!opt.open_loop && recv_ns < run_ns && c.next < c.queue.size()) {
          if (!send(c.queue[c.next++], recv_ns)) send_failed = true;
        }
      }
    }
  }
  for (Conn& c : conns) ::close(c.fd);

  std::ofstream out(opt.out_path);
  for (const Pending& p : sent) {
    out << requests[p.line].index << ' ' << requests[p.line].conn << ' '
        << p.due_ns << ' ' << p.send_ns << ' ' << p.recv_ns << ' '
        << (p.response.empty() ? "-" : p.response) << '\n';
  }
  out.close();
  if (!out) {
    std::fprintf(stderr, "drive: cannot write %s\n", opt.out_path.c_str());
    return 2;
  }
  return send_failed ? 1 : 0;
}

}  // namespace fo2dt::perfbench
