#include "serve/protocol.hpp"

#include "net/tcp.hpp"
#include "support/error.hpp"

namespace scmd::serve {

namespace {

/// Decode must consume the whole body: trailing bytes mean a mis-framed
/// or tampered message, not a longer schema.
void require_done(const ByteReader& r, const char* what) {
  SCMD_REQUIRE(r.done(), std::string("service frame has trailing bytes: ") + what);
}

}  // namespace

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

bool job_state_terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed ||
         s == JobState::kCancelled;
}

Bytes encode_frame(MsgType type, const Bytes& body) {
  ByteWriter w;
  w.pod(kFrameMagic);
  w.pod(static_cast<std::uint16_t>(type));
  if (!body.empty()) w.append(body.data(), body.size());
  return w.take();
}

Frame decode_frame(const Bytes& payload) {
  ByteReader r(payload);
  const auto magic = r.pod<std::uint32_t>();
  SCMD_REQUIRE(magic == kFrameMagic,
               "service frame carries the wrong magic (not a service "
               "client?)");
  const auto type = r.pod<std::uint16_t>();
  SCMD_REQUIRE(type >= static_cast<std::uint16_t>(MsgType::kSubmit) &&
                   type <= static_cast<std::uint16_t>(MsgType::kError),
               "service frame carries an unknown message type " +
                   std::to_string(type));
  Frame f;
  f.type = static_cast<MsgType>(type);
  f.body = r.take(r.remaining());
  return f;
}

Bytes encode_submit(const SubmitRequest& req) {
  ByteWriter w;
  w.string(req.config_text);
  w.pod(req.priority);
  w.pod(static_cast<std::uint8_t>(req.want_checkpoint ? 1 : 0));
  w.pod(req.resume_job);
  return w.take();
}

SubmitRequest decode_submit(const Bytes& body) {
  ByteReader r(body);
  SubmitRequest req;
  req.config_text = r.string();
  req.priority = r.pod<std::int32_t>();
  req.want_checkpoint = r.pod<std::uint8_t>() != 0;
  req.resume_job = r.pod<std::int64_t>();
  require_done(r, "submit");
  return req;
}

Bytes encode_job_id(std::int64_t job_id) {
  ByteWriter w;
  w.pod(job_id);
  return w.take();
}

std::int64_t decode_job_id(const Bytes& body) {
  ByteReader r(body);
  const auto id = r.pod<std::int64_t>();
  require_done(r, "job id");
  return id;
}

Bytes encode_status(const JobStatus& st) {
  ByteWriter w;
  w.pod(st.job_id);
  w.pod(static_cast<std::uint8_t>(st.state));
  w.string(st.error);
  w.pod(st.steps_done);
  w.pod(st.steps_total);
  w.pod(st.chunks);
  w.pod(st.potential_energy);
  w.pod(st.steps_per_sec);
  w.array(st.pool_ranks);
  return w.take();
}

JobStatus decode_status(const Bytes& body) {
  ByteReader r(body);
  JobStatus st;
  st.job_id = r.pod<std::int64_t>();
  st.state = static_cast<JobState>(r.pod<std::uint8_t>());
  st.error = r.string();
  st.steps_done = r.pod<std::int64_t>();
  st.steps_total = r.pod<std::int64_t>();
  st.chunks = r.pod<std::int64_t>();
  st.potential_energy = r.pod<double>();
  st.steps_per_sec = r.pod<double>();
  st.pool_ranks = r.array<std::int32_t>();
  require_done(r, "status");
  return st;
}

Bytes encode_stream_req(const StreamRequest& req) {
  ByteWriter w;
  w.pod(req.job_id);
  w.pod(req.from_seq);
  return w.take();
}

StreamRequest decode_stream_req(const Bytes& body) {
  ByteReader r(body);
  StreamRequest req;
  req.job_id = r.pod<std::int64_t>();
  req.from_seq = r.pod<std::int64_t>();
  require_done(r, "stream request");
  return req;
}

Bytes encode_chunk(const ChunkMsg& chunk) {
  ByteWriter w;
  w.pod(chunk.job_id);
  w.pod(chunk.seq);
  w.pod(static_cast<std::uint8_t>(chunk.kind));
  w.pod(chunk.step);
  w.blob(chunk.payload);
  return w.take();
}

ChunkMsg decode_chunk(const Bytes& body) {
  ByteReader r(body);
  ChunkMsg chunk;
  chunk.job_id = r.pod<std::int64_t>();
  chunk.seq = r.pod<std::int64_t>();
  chunk.kind = static_cast<ChunkKind>(r.pod<std::uint8_t>());
  chunk.step = r.pod<std::int64_t>();
  chunk.payload = r.blob();
  require_done(r, "chunk");
  return chunk;
}

Bytes encode_stream_end(const StreamEnd& end) {
  ByteWriter w;
  w.pod(end.job_id);
  w.pod(static_cast<std::uint8_t>(end.state));
  w.string(end.error);
  return w.take();
}

StreamEnd decode_stream_end(const Bytes& body) {
  ByteReader r(body);
  StreamEnd end;
  end.job_id = r.pod<std::int64_t>();
  end.state = static_cast<JobState>(r.pod<std::uint8_t>());
  end.error = r.string();
  require_done(r, "stream end");
  return end;
}

Bytes encode_error(const std::string& message) { return encode_text(message); }

std::string decode_error(const Bytes& body) { return decode_text(body); }

Bytes encode_text(const std::string& text) {
  ByteWriter w;
  w.string(text);
  return w.take();
}

std::string decode_text(const Bytes& body) {
  ByteReader r(body);
  std::string s = r.string();
  require_done(r, "text");
  return s;
}

Bytes encode_assignment(const JobAssignment& a) {
  ByteWriter w;
  w.pod(static_cast<std::uint8_t>(a.shutdown ? 1 : 0));
  w.pod(a.job_id);
  w.string(a.config_text);
  w.array(a.pool_ranks);
  w.pod(static_cast<std::uint8_t>(a.want_telemetry ? 1 : 0));
  w.pod(static_cast<std::uint8_t>(a.want_checkpoint ? 1 : 0));
  w.string(a.ckpt_dir);
  w.pod(a.checkpoint_every);
  w.pod(static_cast<std::uint8_t>(a.restore ? 1 : 0));
  w.string(a.trace_path);
  w.pod(a.walltime_s);
  w.pod(a.metrics_every);
  return w.take();
}

JobAssignment decode_assignment(const Bytes& payload) {
  ByteReader r(payload);
  JobAssignment a;
  a.shutdown = r.pod<std::uint8_t>() != 0;
  a.job_id = r.pod<std::int64_t>();
  a.config_text = r.string();
  a.pool_ranks = r.array<std::int32_t>();
  a.want_telemetry = r.pod<std::uint8_t>() != 0;
  a.want_checkpoint = r.pod<std::uint8_t>() != 0;
  a.ckpt_dir = r.string();
  a.checkpoint_every = r.pod<std::int32_t>();
  a.restore = r.pod<std::uint8_t>() != 0;
  a.trace_path = r.string();
  a.walltime_s = r.pod<double>();
  a.metrics_every = r.pod<std::int32_t>();
  require_done(r, "assignment");
  return a;
}

Bytes encode_ctrl(const CtrlMsg& msg) {
  ByteWriter w;
  w.pod(msg.job_id);
  w.pod(static_cast<std::uint8_t>(msg.action));
  return w.take();
}

CtrlMsg decode_ctrl(const Bytes& payload) {
  ByteReader r(payload);
  CtrlMsg msg;
  msg.job_id = r.pod<std::int64_t>();
  const auto action = r.pod<std::uint8_t>();
  SCMD_REQUIRE(action == static_cast<std::uint8_t>(CtrlAction::kCancel) ||
                   action == static_cast<std::uint8_t>(CtrlAction::kFinish),
               "unknown service control action " + std::to_string(action));
  msg.action = static_cast<CtrlAction>(action);
  require_done(r, "ctrl");
  return msg;
}

Bytes encode_up(const UpMsg& msg) {
  ByteWriter w;
  w.pod(static_cast<std::uint8_t>(msg.kind));
  w.pod(msg.job_id);
  w.pod(static_cast<std::uint8_t>(msg.chunk_kind));
  w.pod(msg.step);
  w.blob(msg.payload);
  w.pod(static_cast<std::uint8_t>(msg.failed ? 1 : 0));
  w.pod(static_cast<std::uint8_t>(msg.cancelled ? 1 : 0));
  w.string(msg.error);
  w.pod(msg.potential_energy);
  w.pod(msg.steps_completed);
  w.pod(msg.steps_total);
  return w.take();
}

UpMsg decode_up(const Bytes& payload) {
  ByteReader r(payload);
  UpMsg msg;
  const auto kind = r.pod<std::uint8_t>();
  SCMD_REQUIRE(kind >= static_cast<std::uint8_t>(UpKind::kChunk) &&
                   kind <= static_cast<std::uint8_t>(UpKind::kBye),
               "unknown service up-message kind " + std::to_string(kind));
  msg.kind = static_cast<UpKind>(kind);
  msg.job_id = r.pod<std::int64_t>();
  msg.chunk_kind = static_cast<ChunkKind>(r.pod<std::uint8_t>());
  msg.step = r.pod<std::int64_t>();
  msg.payload = r.blob();
  msg.failed = r.pod<std::uint8_t>() != 0;
  msg.cancelled = r.pod<std::uint8_t>() != 0;
  msg.error = r.string();
  msg.potential_energy = r.pod<double>();
  msg.steps_completed = r.pod<std::int64_t>();
  msg.steps_total = r.pod<std::int64_t>();
  require_done(r, "up message");
  return msg;
}

bool write_frame(int fd, MsgType type, const Bytes& body) {
  const Bytes payload = encode_frame(type, body);
  return send_frame(fd, payload.data(), payload.size());
}

bool read_frame_payload(int fd, Bytes* payload) {
  return recv_frame(fd, payload, kMaxFrameBytes);
}

}  // namespace scmd::serve
