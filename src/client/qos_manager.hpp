#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "buffer/media_buffer.hpp"
#include "core/stream_id.hpp"
#include "rtp/session.hpp"

namespace hyms::client {

/// The Client QoS Manager box of Fig. 3: watches each stream's buffer and
/// RTP receiver statistics and assembles the feedback report the paper
/// describes — "the client QoS manager, periodically or in specifically
/// calculated intervals, sends feedback reports to the sending side". The
/// wire carrier is the receiver's RTCP RR + APP("QOSM") compound packet;
/// this class decides what goes into the APP part and keeps client-side
/// aggregate statistics.
///
/// Streams are addressed by their session-interned core::StreamId (the
/// presentation runtime's registry hands them out), so the per-report
/// metrics lookup is a vector index, not a string-map walk.
class ClientQosManager {
 public:
  /// Register a stream: wires this manager as the receiver's APP-metrics
  /// source. Pointers are non-owning and must outlive the manager's use.
  void attach(core::StreamId id, buffer::MediaBuffer* buffer,
              rtp::RtpReceiver* receiver);
  void detach(core::StreamId id);

  /// The metrics for one stream's next feedback report: the buffer's
  /// occupancy ("buffer_ms", so the server sees imminent underflow), the RFC
  /// jitter estimate ("jitter_ms") and the count of frames that failed
  /// reassembly ("incomplete"). A stream without a receiver reports only
  /// its buffer.
  [[nodiscard]] std::vector<std::pair<std::string, double>> metrics_for(
      core::StreamId id) const;

  /// Client-side aggregates across all attached streams.
  [[nodiscard]] double min_buffer_ms() const;
  [[nodiscard]] double worst_jitter_ms() const;
  [[nodiscard]] std::int64_t total_incomplete_frames() const;
  [[nodiscard]] std::size_t stream_count() const { return attached_; }

 private:
  struct StreamRef {
    buffer::MediaBuffer* buffer = nullptr;
    rtp::RtpReceiver* receiver = nullptr;
    bool attached = false;
  };

  std::vector<StreamRef> streams_;  // indexed by StreamId
  std::size_t attached_ = 0;
};

}  // namespace hyms::client
