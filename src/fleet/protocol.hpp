/**
 * @file
 * Fleet wire protocol: length-prefixed JSON frames over TCP.
 *
 * Every message is a 4-byte little-endian payload length followed by
 * one JSON object with a "type" member. The vocabulary is small and
 * Work-Queue-shaped (SNIPPETS.md §3):
 *
 *   worker → manager   hello      {type, worker}
 *                      result     {type, worker, task, ...partials}
 *                      heartbeat  {type, worker}
 *   client → manager   submit     {type, spec}
 *   manager → worker   task       {type, task, ...point spec}
 *                      idle       {type}    (connected, nothing ready)
 *                      shutdown   {type}    (job done, disconnect)
 *   manager → client   table      {type, csv, metrics}
 *
 * Task messages are self-contained (they carry the full sweep-point
 * spec, not a reference to earlier state), so a worker that joins
 * mid-job — or reconnects after the manager re-leased its task —
 * needs no session state. Frames are capped at 4 MiB; a peer
 * announcing more is treated as faulted and dropped, never trusted
 * with an allocation.
 *
 * The socket helpers are thin POSIX wrappers: the manager runs them
 * non-blocking under poll(2), workers use blocking calls with
 * timeouts. All sends use MSG_NOSIGNAL — a dying peer must surface
 * as an error code on the manager, not a SIGPIPE.
 */

#ifndef QUEST_FLEET_PROTOCOL_HPP
#define QUEST_FLEET_PROTOCOL_HPP

#include <cstdint>
#include <string>

#include "sim/json.hpp"

namespace quest::fleet {

using sim::Json;

/** Largest accepted frame payload (bytes). */
inline constexpr std::uint32_t maxFramePayload = 4u << 20;

/** RAII socket file descriptor. */
class Socket
{
  public:
    Socket() = default;
    explicit Socket(int fd) : _fd(fd) {}
    ~Socket() { close(); }

    Socket(Socket &&other) noexcept : _fd(other.release()) {}
    Socket &
    operator=(Socket &&other) noexcept
    {
        if (this != &other) {
            close();
            _fd = other.release();
        }
        return *this;
    }
    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;

    int fd() const { return _fd; }
    bool valid() const { return _fd >= 0; }
    int release()
    {
        const int fd = _fd;
        _fd = -1;
        return fd;
    }
    void close();

  private:
    int _fd = -1;
};

/**
 * Bind and listen on 127.0.0.1:port (port 0 = ephemeral).
 * @param bound_port Receives the actual port.
 * @return listening socket, invalid on failure.
 */
Socket listenTcp(std::uint16_t port, std::uint16_t &bound_port);

/** Accept one pending client; invalid Socket when none/failed. */
Socket acceptClient(const Socket &listener);

/**
 * Connect to host:port, retrying until the deadline (the manager
 * may come up after the worker under CI orchestration).
 * @return connected socket, invalid after timeout_ms of refusals.
 */
Socket connectTcp(const std::string &host, std::uint16_t port,
                  int timeout_ms);

/** Switch a socket to non-blocking mode (manager side). */
bool setNonBlocking(const Socket &sock);

/**
 * Send one framed message, blocking until it is fully written.
 * @return false when the peer is gone (connection unusable).
 */
bool sendFrame(const Socket &sock, const Json &msg);

/**
 * Receive one framed message, blocking up to timeout_ms.
 * @return +1 message received, 0 timeout, -1 peer gone/garbage.
 */
int recvFrame(const Socket &sock, Json &out, int timeout_ms);

/**
 * Incremental frame decoder for non-blocking sockets: feed bytes as
 * they arrive, pop complete frames. One instance per connection.
 */
class FrameReader
{
  public:
    /**
     * Read whatever is available without blocking.
     * @return false when the peer closed or a protocol violation
     *         (oversized/garbled frame) poisoned the stream.
     */
    bool pump(const Socket &sock);

    /** Pop the next complete frame. @return false when none. */
    bool next(Json &out);

    /** True once the stream is unrecoverable (drop the peer). */
    bool poisoned() const { return _poisoned; }

  private:
    std::string _buffer;
    bool _poisoned = false;
};

} // namespace quest::fleet

#endif // QUEST_FLEET_PROTOCOL_HPP
