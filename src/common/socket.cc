#include "common/socket.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace lbp {

namespace {

/** Resolve a numeric IPv4 address or "localhost" into @p addr. */
bool
resolveHost(const std::string &host, std::uint16_t port,
            sockaddr_in &addr, std::string &error)
{
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    const std::string numeric =
        host == "localhost" || host.empty() ? "127.0.0.1" : host;
    if (inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
        error = "bad host '" + host +
                "' (numeric IPv4 or localhost only)";
        return false;
    }
    return true;
}

void
setNoDelay(int fd)
{
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

} // namespace

TcpConn::~TcpConn()
{
    closeConn();
}

TcpConn::TcpConn(TcpConn &&other) noexcept
    : fd_(other.fd_), buf_(std::move(other.buf_)), head_(other.head_),
      scanned_(other.scanned_)
{
    other.fd_ = -1;
    other.head_ = other.scanned_ = 0;
}

TcpConn &
TcpConn::operator=(TcpConn &&other) noexcept
{
    if (this != &other) {
        closeConn();
        fd_ = other.fd_;
        buf_ = std::move(other.buf_);
        head_ = other.head_;
        scanned_ = other.scanned_;
        other.fd_ = -1;
        other.head_ = other.scanned_ = 0;
    }
    return *this;
}

void
TcpConn::closeConn()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
TcpConn::sendAll(std::string_view data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd_, data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
TcpConn::nextLine(std::string &line)
{
    // Bytes before scanned_ hold no newline: search only new ones.
    const std::size_t nl = buf_.find('\n', scanned_);
    if (nl == std::string::npos) {
        scanned_ = buf_.size();
        return false;
    }
    std::size_t end = nl;
    if (end > head_ && buf_[end - 1] == '\r')
        --end;
    line.assign(buf_, head_, end - head_);
    head_ = scanned_ = nl + 1;
    return true;
}

ssize_t
TcpConn::recvChunk(int flags)
{
    // Drop consumed lines once they are at least half the buffer, so
    // compaction stays linear in the bytes received.
    if (head_ > 0 && head_ >= buf_.size() - head_) {
        buf_.erase(0, head_);
        scanned_ -= head_;
        head_ = 0;
    }
    char chunk[64 * 1024];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), flags);
    if (n > 0)
        buf_.append(chunk, static_cast<std::size_t>(n));
    return n;
}

int
TcpConn::readLine(std::string &line, int timeoutMs)
{
    while (true) {
        if (nextLine(line))
            return 1;
        pollfd pfd{fd_, POLLIN, 0};
        const int rc = ::poll(&pfd, 1, timeoutMs);
        if (rc == 0)
            return 0;
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        const ssize_t n = recvChunk(0);
        if (n == 0)
            return -1;  // EOF; any partial line is discarded
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK)
                continue;
            return -1;
        }
    }
}

int
TcpConn::fillAvailable()
{
    bool got = false;
    while (true) {
        const ssize_t n = recvChunk(MSG_DONTWAIT);
        if (n > 0) {
            got = true;
            continue;
        }
        if (n == 0)
            return -1;  // orderly EOF
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return got ? 1 : 0;
        if (errno == EINTR)
            continue;
        return -1;
    }
}

TcpListener::~TcpListener()
{
    closeListener();
}

void
TcpListener::closeListener()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
TcpListener::listenOn(const std::string &host, std::uint16_t port,
                      std::string &error)
{
    sockaddr_in addr;
    if (!resolveHost(host, port, addr, error))
        return false;
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    int one = 1;
    setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        error = std::string("bind: ") + std::strerror(errno);
        closeListener();
        return false;
    }
    if (::listen(fd_, 64) != 0) {
        error = std::string("listen: ") + std::strerror(errno);
        closeListener();
        return false;
    }
    sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (getsockname(fd_, reinterpret_cast<sockaddr *>(&bound),
                    &len) == 0)
        port_ = ntohs(bound.sin_port);
    else
        port_ = port;
    return true;
}

TcpConn
TcpListener::acceptConn()
{
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0)
        return TcpConn();
    setNoDelay(fd);
    return TcpConn(fd);
}

TcpConn
tcpConnect(const std::string &host, std::uint16_t port,
           std::string &error)
{
    sockaddr_in addr;
    if (!resolveHost(host, port, addr, error))
        return TcpConn();
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return TcpConn();
    }
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        error = std::string("connect: ") + std::strerror(errno);
        ::close(fd);
        return TcpConn();
    }
    setNoDelay(fd);
    return TcpConn(fd);
}

} // namespace lbp
