#include "common/trace_writer.hpp"

#include <cmath>
#include <ostream>

#include "common/json_cursor.hpp"

namespace risa {

TraceWriter::TraceWriter(const std::string& path, Options options)
    : opts_(options) {
  owned_.open(path, std::ios::binary | std::ios::trunc);
  if (owned_.is_open()) {
    sink_ = &owned_;
    open_stream();
  } else {
    failed_ = true;
  }
}

TraceWriter::TraceWriter(std::ostream& sink, Options options)
    : opts_(options), sink_(&sink) {
  open_stream();
}

TraceWriter::~TraceWriter() { close(); }

void TraceWriter::open_stream() {
  if (opts_.ring_capacity == 0) opts_.ring_capacity = 1;
  ring_.reserve(opts_.ring_capacity);
  *sink_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  body_end_ = sink_->tellp();
  if (body_end_ == std::streampos(-1)) {
    failed_ = true;
    return;
  }
  write_footer();  // an aborted run with zero events is still valid JSON
}

void TraceWriter::span(const char* name, const char* cat, double ts_us,
                       double dur_us, std::uint32_t tid) {
  push(Event{name, cat, ts_us, dur_us, tid, 'X'});
}

void TraceWriter::instant(const char* name, const char* cat, double ts_us,
                          std::uint32_t tid) {
  push(Event{name, cat, ts_us, 0.0, tid, 'i'});
}

void TraceWriter::counter(const char* name, const char* cat, double ts_us,
                          double value) {
  push(Event{name, cat, ts_us, value, 0, 'C'});
}

void TraceWriter::process_name(std::string_view name) {
  if (!ok() || closed_) return;
  if (!body_empty_ || !meta_.empty()) meta_ += ',';
  meta_ += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
           "\"args\":{\"name\":";
  append_json_string(meta_, name);
  meta_ += "}}";
}

void TraceWriter::thread_name(std::uint32_t tid, std::string_view name) {
  if (!ok() || closed_) return;
  if (!body_empty_ || !meta_.empty()) meta_ += ',';
  meta_ += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
  append_json_number(meta_, static_cast<double>(tid));
  meta_ += ",\"name\":\"thread_name\",\"args\":{\"name\":";
  append_json_string(meta_, name);
  meta_ += "}}";
}

void TraceWriter::push(const Event& e) {
  if (!ok() || closed_) {
    ++dropped_;
    return;
  }
  if (ring_.size() >= opts_.ring_capacity) {
    if (opts_.flush_on_full) {
      flush();
      if (!ok()) {  // flush detected a sink failure
        ++dropped_;
        return;
      }
    } else {
      ++dropped_;
      return;
    }
  }
  ring_.push_back(e);
  ++emitted_;
}

void TraceWriter::serialize(const Event& e, std::string& out) const {
  out += "{\"ph\":\"";
  out += e.ph;
  out += "\",\"pid\":1,\"tid\":";
  append_json_number(out, static_cast<double>(e.tid));
  // NaN/inf are not JSON: a non-finite sample is written as 0 so one bad
  // sample cannot poison the file.
  out += ",\"ts\":";
  append_json_number(out, std::isfinite(e.ts) ? e.ts : 0.0);
  if (e.ph == 'X') {
    out += ",\"dur\":";
    append_json_number(out, std::isfinite(e.a) ? e.a : 0.0);
  } else if (e.ph == 'i') {
    out += ",\"s\":\"t\"";
  }
  out += ",\"name\":";
  append_json_string(out, e.name);
  out += ",\"cat\":";
  append_json_string(out, e.cat);
  if (e.ph == 'C') {
    out += ",\"args\":{\"value\":";
    append_json_number(out, std::isfinite(e.a) ? e.a : 0.0);
    out += '}';
  }
  out += '}';
}

void TraceWriter::flush() {
  if (!ok() || closed_) return;
  if (meta_.empty() && ring_.empty()) return;
  chunk_.clear();
  chunk_ += meta_;  // metadata already carries its leading comma
  meta_.clear();
  bool first = body_empty_ && chunk_.empty();
  for (const Event& e : ring_) {
    if (!first) chunk_ += ',';
    first = false;
    serialize(e, chunk_);
  }
  ring_.clear();
  if (chunk_.empty()) return;
  body_empty_ = false;
  sink_->seekp(body_end_);
  sink_->write(chunk_.data(), static_cast<std::streamsize>(chunk_.size()));
  body_end_ = sink_->tellp();
  write_footer();
  sink_->flush();
  if (!*sink_) failed_ = true;
}

void TraceWriter::write_footer() {
  // The footer only ever grows (the body extends, `dropped_` is
  // monotone), so a rewrite never leaves stale bytes past the end.
  chunk_.clear();
  chunk_ += "],\"overflowDropped\":";
  append_json_number(chunk_, static_cast<double>(dropped_));
  chunk_ += '}';
  sink_->write(chunk_.data(), static_cast<std::streamsize>(chunk_.size()));
}

void TraceWriter::close() {
  if (sink_ == nullptr || closed_) return;
  if (ok()) {
    flush();
    if (ok() && dropped_ > 0) {
      // flush() skips empty rings; make sure the final drop count lands.
      sink_->seekp(body_end_);
      write_footer();
      sink_->flush();
    }
  }
  closed_ = true;
  if (owned_.is_open()) owned_.close();
}

}  // namespace risa
