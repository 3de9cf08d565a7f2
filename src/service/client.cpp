#include "service/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace sciduction::service {

client::client(const smt::term_manager& tm, const std::string& socket_path,
               const std::string& tenant, unsigned weight)
    : tm_(tm) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw client_error("sciduction_client: socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
        ::close(fd_);
        fd_ = -1;
        throw client_error("sciduction_client: socket path too long");
    }
    std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd_);
        fd_ = -1;
        throw client_error("sciduction_client: cannot connect to " + socket_path);
    }
    wire_writer w;
    w.u32(protocol_version);
    w.str(tenant);
    w.u32(weight);
    write_all(pack_frame({op::hello, w.take()}));
    const frame reply = read_until(op::hello_ok);
    wire_reader r(reply.payload);
    if (r.u32() != protocol_version)
        throw client_error("sciduction_client: daemon speaks a different protocol version");
}

client::~client() {
    if (fd_ >= 0) ::close(fd_);
}

void client::write_all(const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
        // MSG_NOSIGNAL: a daemon that hung up makes this fail with EPIPE
        // instead of raising SIGPIPE, which would kill the calling process.
        const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            if (errno == EPIPE || errno == ECONNRESET) {
                // The daemon explains a hang-up (an oversized frame, say)
                // in an error frame sent just before it: report that.
                while (true) {
                    const frame f = read_frame();  // throws client_error at EOF
                    if (f.opcode != op::error) continue;
                    wire_reader r(f.payload);
                    throw client_error("sciductiond error: " + r.str());
                }
            }
            throw client_error("sciduction_client: write failed");
        }
        off += static_cast<std::size_t>(n);
    }
}

frame client::read_frame() {
    auto read_exact = [&](std::uint8_t* dst, std::size_t n) {
        std::size_t off = 0;
        while (off < n) {
            const ssize_t got = ::read(fd_, dst + off, n - off);
            if (got == 0) throw client_error("sciduction_client: daemon closed the connection");
            if (got < 0) {
                if (errno == EINTR) continue;
                throw client_error("sciduction_client: read failed");
            }
            off += static_cast<std::size_t>(got);
        }
    };
    std::uint8_t len_bytes[4];
    read_exact(len_bytes, 4);
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(len_bytes[i]) << (8 * i);
    if (len == 0 || len > max_frame_bytes)
        throw client_error("sciduction_client: invalid frame length from daemon");
    frame f;
    std::uint8_t opcode = 0;
    read_exact(&opcode, 1);
    f.opcode = static_cast<op>(opcode);
    f.payload.resize(len - 1);
    if (!f.payload.empty()) read_exact(f.payload.data(), f.payload.size());
    return f;
}

frame client::read_until(op want) {
    while (true) {
        frame f = read_frame();
        if (f.opcode == want) return f;
        if (f.opcode == op::result) {
            result_message msg = decode_result(f.payload);
            stashed_results_[msg.request_id] = std::move(msg);
            continue;
        }
        if (f.opcode == op::error) {
            wire_reader r(f.payload);
            throw client_error("sciductiond error: " + r.str());
        }
        // Unsolicited/late replies of other kinds (a cancel_ack racing a
        // drain, say) are dropped: every blocking call re-reads until its
        // own reply type.
    }
}

submit_outcome client::submit(const substrate::solve_request& req) {
    submit_outcome out;
    out.request_id = next_id_++;
    write_all(pack_frame({op::submit, encode_submit(tm_, out.request_id, req)}));
    // The admission verdict is the next submit_ack or reject for this id.
    while (true) {
        frame f = read_frame();
        if (f.opcode == op::result) {
            result_message msg = decode_result(f.payload);
            stashed_results_[msg.request_id] = std::move(msg);
            continue;
        }
        if (f.opcode == op::submit_ack) {
            wire_reader r(f.payload);
            const std::uint64_t id = r.u64();
            if (id != out.request_id) continue;
            out.accepted = true;
            out.queue_position = r.u32();
            return out;
        }
        if (f.opcode == op::reject) {
            wire_reader r(f.payload);
            const std::uint64_t id = r.u64();
            const auto reason = static_cast<reject_reason>(r.u8());
            std::string detail = r.str();
            if (id != out.request_id) continue;
            out.accepted = false;
            out.reason = reason;
            out.detail = std::move(detail);
            return out;
        }
        if (f.opcode == op::error) {
            wire_reader r(f.payload);
            throw client_error("sciductiond error: " + r.str());
        }
    }
}

result_message client::await(std::uint64_t request_id) {
    if (auto it = stashed_results_.find(request_id); it != stashed_results_.end()) {
        result_message msg = std::move(it->second);
        stashed_results_.erase(it);
        return msg;
    }
    while (true) {
        frame f = read_until(op::result);
        result_message msg = decode_result(f.payload);
        if (msg.request_id == request_id) return msg;
        stashed_results_[msg.request_id] = std::move(msg);
    }
}

bool client::cancel(std::uint64_t request_id) {
    wire_writer w;
    w.u64(request_id);
    write_all(pack_frame({op::cancel, w.take()}));
    while (true) {
        frame f = read_until(op::cancel_ack);
        wire_reader r(f.payload);
        const std::uint64_t id = r.u64();
        const bool found = r.u8() != 0;
        if (id == request_id) return found;
    }
}

progress_message client::progress(std::uint64_t request_id) {
    wire_writer w;
    w.u64(request_id);
    write_all(pack_frame({op::progress, w.take()}));
    while (true) {
        frame f = read_until(op::progress_reply);
        progress_message msg = decode_progress(f.payload);
        if (msg.request_id == request_id) return msg;
    }
}

std::map<std::string, std::uint64_t> client::stats() {
    write_all(pack_frame({op::stats, {}}));
    const frame f = read_until(op::stats_reply);
    return decode_stats(f.payload);
}

std::string client::trace() {
    write_all(pack_frame({op::trace, {}}));
    const frame f = read_until(op::trace_reply);
    wire_reader r(f.payload);
    return r.str();
}

void client::drain(drain_policy policy) {
    wire_writer w;
    w.u8(static_cast<std::uint8_t>(policy));
    write_all(pack_frame({op::drain, w.take()}));
    (void)read_until(op::drain_ack);
}

}  // namespace sciduction::service
