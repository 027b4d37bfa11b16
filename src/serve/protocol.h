#pragma once
// The serve wire protocol: length-prefixed binary frames on a loopback TCP
// stream. Chosen over a text protocol for the same reason the snapshot
// format is binary — the ingest path is the hot path, and a vote frame is
// 21 bytes (4-byte length + 1-byte type + two u32 ids + f64 minutes), so
// millions of votes per second cost tens of MB/s of loopback bandwidth,
// not hundreds.
//
// Frame layout (all integers little-endian, like DIGGSNAP):
//   u32  body length (1 .. kMaxFrameBytes)
//   u8   message type (MsgType)
//   ...  type-specific payload (fixed layout per type; kStateReply carries
//        one variable u32 column, length-prefixed)
//
// Client -> server:
//   kVote          u32 story_id  u32 voter      f64 time_minutes
//   kSubmit        u32 story_id  u32 submitter  f64 time_minutes
//   kQueryState    u32 story_id
//   kQueryPredict  u32 story_id
//   kSync          u32 token
// Server -> client:
//   kStateReply    u32 story_id  u8 found  u64 votes  u32 fans1
//                  u32 cascade_count  u32[cascade_count] cascade values
//                  u8 promoted  f64 promoted_time
//   kPredictReply  u32 story_id  u8 found  u8 has_c45  u8 c45_yes
//                  u8 has_bayes  u8 bayes_yes  f64 bayes_expected_final
//   kSyncReply     u32 token
//   kError         u8 code (ErrorCode)  u32 detail (e.g. the story id)
//
// Ordering/answer contract: the server applies accepted events in the
// order it accepted them, across all connections, and answers a query or
// sync once every event accepted before it has been applied; engine state
// only ever holds such a whole prefix of the accepted events. A sync is
// therefore a write barrier: send votes, sync, then query, and the reply
// reflects all of them.
//
// Malformed input (length 0 or beyond kMaxFrameBytes, unknown type, body
// size disagreeing with the type) throws ProtocolError from the decoder;
// the server answers kError{kBadFrame} and closes the connection.
// Well-formed events the engine must not apply (an unknown story or user,
// a non-finite time, a repeated voter below the engine's horizon, a time
// earlier than the story's last) are answered with their ErrorCode and the
// connection keeps serving. A repeated voter past the horizon is accepted
// and counted: refusing it would need per-story state that grows with the
// votes. The fuzz-style table test in tests/serve_test.cpp drives exactly
// this decoder with truncated/oversized/garbage frames under ASan.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <variant>
#include <vector>

namespace digg::serve {

/// Largest legal frame body. Big enough for any reply (a state reply with
/// dozens of checkpoint columns), small enough that a hostile length field
/// cannot make the decoder buffer gigabytes.
inline constexpr std::uint32_t kMaxFrameBytes = 1024;

enum class MsgType : std::uint8_t {
  kVote = 1,
  kSubmit = 2,
  kQueryState = 3,
  kQueryPredict = 4,
  kSync = 5,
  kStateReply = 16,
  kPredictReply = 17,
  kSyncReply = 18,
  kError = 19,
};

enum class ErrorCode : std::uint8_t {
  kUnknownStory = 1,   // vote/query for a story id never submitted
  kDuplicateStory = 2, // submit for a story id already submitted
  kBadFrame = 3,       // malformed frame (connection is closed after this)
  kStopping = 4,       // event arrived while the server drains
  kUnknownUser = 5,    // voter/submitter id outside the network; the
                       // detail is the offending user id
  kBadTime = 6,        // vote/submit time is NaN or infinite; the detail
                       // is the story id
  kDuplicateVoter = 7, // the voter already dugg the story within the
                       // engine's horizon (the submitter's digg counts);
                       // the detail is the story id
  kTimeOrder = 8,      // vote time earlier than the story's last accepted
                       // time; the detail is the story id
};

struct VoteMsg {
  std::uint32_t story_id = 0;
  std::uint32_t voter = 0;
  double time = 0.0;
};
struct SubmitMsg {
  std::uint32_t story_id = 0;
  std::uint32_t submitter = 0;
  double time = 0.0;
};
struct QueryStateMsg {
  std::uint32_t story_id = 0;
};
struct QueryPredictMsg {
  std::uint32_t story_id = 0;
};
struct SyncMsg {
  std::uint32_t token = 0;
};
struct StateReplyMsg {
  std::uint32_t story_id = 0;
  std::uint8_t found = 0;
  std::uint64_t votes = 0;
  std::uint32_t fans1 = 0;
  std::vector<std::uint32_t> cascade;  // per cascade checkpoint, saturating
  std::uint8_t promoted = 0;
  double promoted_time = 0.0;
};
struct PredictReplyMsg {
  std::uint32_t story_id = 0;
  std::uint8_t found = 0;
  std::uint8_t has_c45 = 0;   // C4.5 hook fired (story passed v10, armed)
  std::uint8_t c45_yes = 0;
  std::uint8_t has_bayes = 0; // Bayes fit fired (passed v10, enabled)
  std::uint8_t bayes_yes = 0;
  double bayes_expected_final = 0.0;
};
struct SyncReplyMsg {
  std::uint32_t token = 0;
};
struct ErrorMsg {
  ErrorCode code = ErrorCode::kBadFrame;
  std::uint32_t detail = 0;
};

using Message =
    std::variant<VoteMsg, SubmitMsg, QueryStateMsg, QueryPredictMsg, SyncMsg,
                 StateReplyMsg, PredictReplyMsg, SyncReplyMsg, ErrorMsg>;

struct ProtocolError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Appends one encoded frame for `msg` to `out`.
void encode(const Message& msg, std::vector<char>& out);

/// Incremental frame decoder over a byte stream. feed() bytes as they
/// arrive; next() yields complete messages until it returns false (more
/// bytes needed). Throws ProtocolError on malformed input; the decoder is
/// then poisoned (every further call throws) — close the connection.
class FrameDecoder {
 public:
  void feed(const char* data, std::size_t n);
  [[nodiscard]] bool next(Message& out);
  /// Bytes buffered but not yet decoded (tests + drain bookkeeping).
  [[nodiscard]] std::size_t pending_bytes() const { return buf_.size() - off_; }

 private:
  std::vector<char> buf_;
  std::size_t off_ = 0;  // consumed prefix of buf_
  bool poisoned_ = false;
};

}  // namespace digg::serve
