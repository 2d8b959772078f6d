#include "flow/net/peer_link.h"

#include <sys/socket.h>

#include <chrono>

#include "common/check.h"
#include "common/frame.h"

namespace comove::flow::net {

namespace {

std::uint64_t MonotonicNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

PeerLink::~PeerLink() { Shutdown(); }

bool PeerLink::SendFrame(std::string_view payload) {
  // The reader would reject the frame and drop the link; fail here, at
  // the sender, with the real cause instead.
  COMOVE_CHECK_MSG(payload.size() <= kMaxFramePayloadBytes,
                   "PeerLink::SendFrame: %zu-byte payload exceeds the "
                   "%u-byte frame limit",
                   payload.size(), kMaxFramePayloadBytes);
  std::lock_guard<std::mutex> lock(send_mu_);
  if (dead_.load(std::memory_order_relaxed)) return false;
  send_buffer_.clear();
  AppendFrame(&send_buffer_, payload);
  const std::uint64_t t0 = stats_ != nullptr ? MonotonicNowNs() : 0;
  if (!WriteFull(fd_.get(), send_buffer_.data(), send_buffer_.size())) {
    dead_.store(true, std::memory_order_release);
    return false;
  }
  if (stats_ != nullptr) {
    stats_->OnLinkFrameSent(static_cast<std::int64_t>(send_buffer_.size()),
                            MonotonicNowNs() - t0);
  }
  return true;
}

bool PeerLink::ReadOneFrame(std::string* payload) {
  const std::uint64_t t0 = stats_ != nullptr ? MonotonicNowNs() : 0;
  char header_bytes[kFrameHeaderBytes];
  if (!ReadFull(fd_.get(), header_bytes, sizeof(header_bytes))) {
    return false;
  }
  const auto header = DecodeFrameHeader(header_bytes);
  if (!header) {
    if (stats_ != nullptr) stats_->OnCrcReject();
    return false;
  }
  payload->resize(header->payload_bytes);
  if (header->payload_bytes > 0 &&
      !ReadFull(fd_.get(), payload->data(), payload->size())) {
    return false;
  }
  if (!ValidateFramePayload(*header, *payload)) {
    if (stats_ != nullptr) stats_->OnCrcReject();
    return false;
  }
  if (stats_ != nullptr) {
    stats_->OnLinkFrameReceived(
        static_cast<std::int64_t>(sizeof(header_bytes) + payload->size()),
        MonotonicNowNs() - t0);
  }
  return true;
}

bool PeerLink::ReadFrameBlocking(std::string* payload,
                                 std::int64_t timeout_ms) {
  if (!PollReadable(fd_.get(), timeout_ms)) return false;
  return ReadOneFrame(payload);
}

void PeerLink::Start(std::function<void(std::string_view)> on_frame,
                     std::function<void()> on_close) {
  reader_ = std::thread([this, on_frame = std::move(on_frame),
                         on_close = std::move(on_close)] {
    while (ReadOneFrame(&read_buffer_)) {
      on_frame(read_buffer_);
    }
    dead_.store(true, std::memory_order_release);
    if (on_close) on_close();
  });
}

void PeerLink::CloseSend() {
  std::lock_guard<std::mutex> lock(send_mu_);
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_WR);
}

void PeerLink::Shutdown() {
  if (reader_.joinable()) reader_.join();
  dead_.store(true, std::memory_order_release);
  fd_.Reset();
}

}  // namespace comove::flow::net
