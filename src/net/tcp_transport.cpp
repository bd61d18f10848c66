#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>

namespace coco::net {

namespace {

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// Reads until EAGAIN / close. Returns false when the peer hung up or the
// socket errored.
bool DrainSocket(int fd, RawFrameReader* reader, TcpStats* stats) {
  uint8_t buf[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      stats->bytes_received += static_cast<uint64_t>(n);
      reader->Feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return false;  // orderly shutdown
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
}

// Flushes as much of *out as the socket accepts; the remainder stays
// buffered. Returns false on a dead socket.
bool FlushBuffer(int fd, std::vector<uint8_t>* out, TcpStats* stats) {
  size_t off = 0;
  while (off < out->size()) {
    const ssize_t n =
        ::send(fd, out->data() + off, out->size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      stats->bytes_sent += static_cast<uint64_t>(n);
      off += static_cast<size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  out->erase(out->begin(), out->begin() + static_cast<ptrdiff_t>(off));
  return true;
}

}  // namespace

// ---- TcpCollectorTransport ------------------------------------------------

TcpCollectorTransport::TcpCollectorTransport(uint16_t port,
                                             const std::string& address) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1 ||
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0 || !SetNonBlocking(fd)) {
    ::close(fd);
    return;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return;
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
}

TcpCollectorTransport::~TcpCollectorTransport() {
  for (auto& conn : connections_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void TcpCollectorTransport::AcceptPending() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or error: nothing (more) to accept
    if (!SetNonBlocking(fd)) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    connections_.push_back(std::move(conn));
    stats_.connects++;
  }
}

void TcpCollectorTransport::ReadFrom(Connection* conn) {
  const bool alive = DrainSocket(conn->fd, &conn->reader, &stats_);
  std::vector<uint8_t> frame;
  while (conn->reader.Next(&frame)) {
    // Frames self-identify: byte offset 8 is the agent id (net/frame.h).
    const uint32_t agent_id = LoadBE32(frame.data() + 8);
    if (!conn->agent_known || conn->agent_id != agent_id) {
      conn->agent_id = agent_id;
      conn->agent_known = true;
      by_agent_[agent_id] = conn;  // newest connection wins (agent restart)
    }
    stats_.frames_delivered++;
    rx_.push_back(std::move(frame));
  }
  if (!alive) conn->fd = -1;  // reaped in Tick
}

void TcpCollectorTransport::FlushTo(Connection* conn) {
  if (conn->out.empty()) return;
  if (!FlushBuffer(conn->fd, &conn->out, &stats_)) conn->fd = -1;
}

void TcpCollectorTransport::CloseConnection(size_t index) {
  Connection* conn = connections_[index].get();
  auto it = conn->agent_known ? by_agent_.find(conn->agent_id)
                              : by_agent_.end();
  if (it != by_agent_.end() && it->second == conn) by_agent_.erase(it);
  if (conn->fd >= 0) ::close(conn->fd);
  stats_.disconnects++;
  connections_.erase(connections_.begin() + static_cast<ptrdiff_t>(index));
}

void TcpCollectorTransport::Tick() {
  if (listen_fd_ < 0) return;
  AcceptPending();
  for (auto& conn : connections_) {
    if (conn->fd >= 0) ReadFrom(conn.get());
    if (conn->fd >= 0) FlushTo(conn.get());
  }
  for (size_t i = connections_.size(); i > 0; --i) {
    if (connections_[i - 1]->fd < 0) CloseConnection(i - 1);
  }
  stats_.bad_bytes = 0;
  for (auto& conn : connections_) {
    stats_.bad_bytes += conn->reader.bad_bytes();
  }
}

bool TcpCollectorTransport::Receive(std::vector<uint8_t>* frame) {
  if (rx_.empty()) Tick();
  if (rx_.empty()) return false;
  *frame = std::move(rx_.front());
  rx_.pop_front();
  return true;
}

bool TcpCollectorTransport::SendTo(uint32_t agent_id,
                                   const std::vector<uint8_t>& frame) {
  auto it = by_agent_.find(agent_id);
  if (it == by_agent_.end() || it->second->fd < 0) return false;
  Connection* conn = it->second;
  conn->out.insert(conn->out.end(), frame.begin(), frame.end());
  FlushTo(conn);
  return conn->fd >= 0;
}

// ---- TcpAgentTransport ----------------------------------------------------

TcpAgentTransport::TcpAgentTransport(const std::string& address, uint16_t port,
                                     Options options)
    : address_(address),
      port_(port),
      options_(options),
      backoff_ms_(options.backoff_initial_ms) {
  StartConnect();
}

TcpAgentTransport::~TcpAgentTransport() {
  if (fd_ >= 0) ::close(fd_);
}

int64_t TcpAgentTransport::NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void TcpAgentTransport::StartConnect() {
  if (NowMs() < next_connect_at_ms_) return;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  if (!SetNonBlocking(fd)) {
    ::close(fd);
    return;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, address_.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return;
  }
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr));
  if (rc == 0) {
    fd_ = fd;
    state_ = State::kConnected;
    backoff_ms_ = options_.backoff_initial_ms;
    stats_.connects++;
    return;
  }
  if (errno == EINPROGRESS) {
    fd_ = fd;
    state_ = State::kConnecting;
    return;
  }
  ::close(fd);
  // Exponential backoff before the next attempt.
  next_connect_at_ms_ = NowMs() + backoff_ms_;
  backoff_ms_ = std::min(backoff_ms_ * 2, options_.backoff_max_ms);
}

void TcpAgentTransport::CheckConnecting() {
  pollfd pfd{fd_, POLLOUT, 0};
  if (::poll(&pfd, 1, 0) <= 0) return;  // still in progress
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
    Disconnect();
    return;
  }
  state_ = State::kConnected;
  backoff_ms_ = options_.backoff_initial_ms;
  stats_.connects++;
}

void TcpAgentTransport::Disconnect() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  if (state_ != State::kDisconnected) stats_.disconnects++;
  state_ = State::kDisconnected;
  out_.clear();  // the protocol layer re-sends after reconnect
  next_connect_at_ms_ = NowMs() + backoff_ms_;
  backoff_ms_ = std::min(backoff_ms_ * 2, options_.backoff_max_ms);
}

void TcpAgentTransport::ReadSocket() {
  if (!DrainSocket(fd_, &reader_, &stats_)) {
    Disconnect();
    return;
  }
  std::vector<uint8_t> frame;
  while (reader_.Next(&frame)) {
    stats_.frames_delivered++;
    rx_.push_back(std::move(frame));
  }
}

void TcpAgentTransport::FlushSocket() {
  if (out_.empty()) return;
  if (!FlushBuffer(fd_, &out_, &stats_)) Disconnect();
}

void TcpAgentTransport::Tick() {
  switch (state_) {
    case State::kDisconnected:
      StartConnect();
      break;
    case State::kConnecting:
      CheckConnecting();
      break;
    case State::kConnected:
      ReadSocket();
      if (state_ == State::kConnected) FlushSocket();
      break;
  }
  stats_.bad_bytes = reader_.bad_bytes();
}

bool TcpAgentTransport::Send(const std::vector<uint8_t>& frame) {
  if (state_ != State::kConnected) {
    Tick();  // drive reconnect forward
    if (state_ != State::kConnected) return false;
  }
  out_.insert(out_.end(), frame.begin(), frame.end());
  FlushSocket();
  return state_ == State::kConnected;
}

bool TcpAgentTransport::Receive(std::vector<uint8_t>* frame) {
  if (rx_.empty() && state_ == State::kConnected) ReadSocket();
  if (rx_.empty()) return false;
  *frame = std::move(rx_.front());
  rx_.pop_front();
  return true;
}

}  // namespace coco::net
