/**
 * @file
 * Minimal TCP plumbing for the sweep daemon and its clients.
 *
 * The lbp-serve-v1 protocol (docs/SERVER.md) is one JSON object per
 * '\n'-terminated line over a loopback TCP connection. These wrappers
 * cover exactly what that needs — a listener with ephemeral-port
 * support (bind port 0, report the kernel's choice), a connected
 * stream with blocking send / line-buffered receive, and a
 * non-blocking drain for poll()-driven servers — so no other
 * translation unit touches raw sockets. Numeric IPv4 addresses and
 * "localhost" only: the daemon is a loopback service, name resolution
 * is out of scope.
 */

#ifndef LBP_COMMON_SOCKET_HH
#define LBP_COMMON_SOCKET_HH

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>

namespace lbp {

/**
 * One connected TCP stream with an internal receive buffer that
 * reassembles '\n'-terminated lines across reads. Move-only; the
 * destructor closes the descriptor.
 */
class TcpConn
{
  public:
    TcpConn() = default;
    /** Adopt an already-connected descriptor (-1 = empty). */
    explicit TcpConn(int fd) : fd_(fd) {}
    ~TcpConn();

    TcpConn(TcpConn &&other) noexcept;
    TcpConn &operator=(TcpConn &&other) noexcept;
    TcpConn(const TcpConn &) = delete;
    TcpConn &operator=(const TcpConn &) = delete;

    /** True while an open descriptor is held. */
    bool valid() const { return fd_ >= 0; }

    /** Underlying descriptor (-1 when empty); for poll() sets. */
    int fd() const { return fd_; }

    /**
     * Send all of @p data, blocking as needed. False on any error
     * (the peer vanished); SIGPIPE is suppressed.
     */
    bool sendAll(std::string_view data);

    /**
     * Blocking read of one line. Waits up to @p timeoutMs (-1 =
     * forever) for a complete line, in multiple reads if needed.
     * Returns 1 with @p line filled (terminator stripped, trailing
     * '\r' too), 0 on timeout, -1 on EOF or error.
     */
    int readLine(std::string &line, int timeoutMs = -1);

    /**
     * Drain everything currently readable without blocking. Returns 1
     * if bytes arrived, 0 if nothing was pending, -1 on EOF or error.
     * Extract completed lines with nextLine() afterwards.
     */
    int fillAvailable();

    /** Pop the next buffered complete line; false when none is. */
    bool nextLine(std::string &line);

    /** Close the descriptor now (idempotent). */
    void closeConn();

  private:
    /** One recv() of up to 64 KiB onto buf_ (after compacting away
     *  consumed lines); recv()'s return value. */
    ssize_t recvChunk(int flags);

    int fd_ = -1;
    std::string buf_;          ///< received bytes not yet compacted
    std::size_t head_ = 0;     ///< start of the first unconsumed line
    std::size_t scanned_ = 0;  ///< buf_[head_, scanned_) has no '\n'
};

/**
 * Listening TCP socket. Binding port 0 asks the kernel for an
 * ephemeral port, reported by boundPort() — tests and CI start the
 * daemon that way and discover the port from its --port-file.
 */
class TcpListener
{
  public:
    TcpListener() = default;
    ~TcpListener();

    TcpListener(const TcpListener &) = delete;
    TcpListener &operator=(const TcpListener &) = delete;

    /**
     * Bind and listen on @p host:@p port (numeric IPv4 or
     * "localhost"). False on failure with @p error describing it.
     */
    bool listenOn(const std::string &host, std::uint16_t port,
                  std::string &error);

    /** Listening descriptor (-1 before listenOn); for poll() sets. */
    int fd() const { return fd_; }

    /** Port actually bound (resolves port-0 binds). */
    std::uint16_t boundPort() const { return port_; }

    /**
     * Accept one pending connection (call after poll() reports the
     * listener readable). Invalid TcpConn if accept fails.
     */
    TcpConn acceptConn();

    /** Stop listening and close the descriptor (idempotent). */
    void closeListener();

  private:
    int fd_ = -1;
    std::uint16_t port_ = 0;
};

/**
 * Connect to @p host:@p port (numeric IPv4 or "localhost"),
 * blocking. Invalid TcpConn on failure with @p error describing it.
 */
TcpConn tcpConnect(const std::string &host, std::uint16_t port,
                   std::string &error);

} // namespace lbp

#endif // LBP_COMMON_SOCKET_HH
