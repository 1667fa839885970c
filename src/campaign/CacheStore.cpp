//===- campaign/CacheStore.cpp - persistent result cache -----------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "campaign/CacheStore.h"

#include "campaign/Report.h"
#include "power/DeviceRegistry.h"
#include "support/Checksum.h"
#include "support/FaultInjector.h"
#include "support/FileLock.h"
#include "support/Format.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Random.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

using namespace ramloc;

namespace {

// The v1 -> v2 bump is the framing change: every line (headers included)
// now carries a CRC32C prefix. Schemas feed the fingerprints, so v1
// stores can never match and are retired wholesale instead of half-read.
constexpr const char *StoreSchema = "ramloc-cache-v2";
constexpr const char *ReportSchema = "ramloc-campaign-v2";
constexpr const char *ProfileSchema = "ramloc-profiles-v2";
constexpr const char *IncumbentSchema = "ramloc-incumbents-v2";
constexpr const char *JournalSchema = "ramloc-progress-v2";
/// Bump when the interpreter's architectural behaviour (instruction
/// semantics, block accounting, halt conventions) changes in a way that
/// alters recorded profiles. Timing/power changes do NOT bump it.
constexpr const char *SimSemanticsTag = "ramloc-sim-semantics-v1";

/// Which of the three files CacheStore::writeFiles() writes.
enum : unsigned { ResultsBit = 1, ProfilesBit = 2, IncumbentsBit = 4 };

void hashBytes(uint64_t &H, std::string_view S) {
  H = fnv1a64(H, S);
  H ^= 0xff; // field separator so adjacent strings cannot alias
  H *= Fnv1aPrime;
}

void hashDouble(uint64_t &H, double V) {
  // Hash the canonical decimal spelling, not raw bits, so the fingerprint
  // is stable across platforms that agree on the value.
  hashBytes(H, jsonNumber(V));
}

/// One complete framed store line: CRC32C prefix, payload, newline.
std::string framedLine(const std::string &Payload) {
  return frameRecord(Payload) + "\n";
}

/// Atomic whole-file replacement: temporary in the same directory,
/// renamed over the target. The temporary's name carries the writer's
/// PID: `--shard` runs sharing one cache directory may repair the same
/// file concurrently, and with a fixed ".tmp" name one writer's rename
/// could ship a half-written temporary belonging to another. Distinct
/// names make each rename atomic over its own complete document;
/// last-rename-wins is then safe because every writer produces a valid
/// file.
bool replaceFile(const std::string &Path, const std::string &Doc,
                 std::string *Error) {
  std::string Tmp =
      Path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  if (!writeTextFile(Tmp, Doc, Error))
    return false;
  // Fault site: the rename itself fails (e.g. EIO on the directory).
  bool RenameFailed = FaultInjector::shouldFail("cache.rename") ||
                      std::rename(Tmp.c_str(), Path.c_str()) != 0;
  if (RenameFailed) {
    std::remove(Tmp.c_str());
    if (Error)
      *Error = "cannot rename '" + Tmp + "' to '" + Path + "'";
    return false;
  }
  return true;
}

/// Appends \p Doc with O_APPEND and a single write(2) call, so the whole
/// batch of lines lands contiguously even when other processes append
/// concurrently (one write to a regular file is not interleaved by the
/// kernel; an ofstream would split a large Doc across several writes and
/// let another writer tear a record mid-line). A short write — ENOSPC or
/// a signal mid-transfer — is reported as an error; the partial tail
/// line it may leave fails its CRC on the next open().
bool appendToFile(const std::string &Path, const std::string &Doc,
                  std::string *Error) {
  // Fault site: the open itself fails (transient EIO / EMFILE class).
  if (FaultInjector::shouldFail("cache.append.eio")) {
    if (Error)
      *Error = "cannot open '" + Path + "' for append (injected EIO)";
    return false;
  }
  int Fd = ::open(Path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                  0644);
  if (Fd < 0) {
    if (Error)
      *Error = "cannot open '" + Path + "' for append";
    return false;
  }
  // Fault site: a short write — half the batch actually lands on disk,
  // exactly the torn-tail shape ENOSPC or a mid-transfer signal leaves.
  // The injected partial data is real: the loader's CRC check and the
  // leading newline of every append must cope with it, not a simulation
  // of it.
  size_t ToWrite = Doc.size();
  if (FaultInjector::shouldFail("cache.append.short"))
    ToWrite = Doc.size() / 2;
  ssize_t Written = ::write(Fd, Doc.data(), ToWrite);
  ::close(Fd);
  if (Written != static_cast<ssize_t>(Doc.size())) {
    if (Error)
      *Error = "short append to '" + Path + "'";
    return false;
  }
  return true;
}

/// Bounded, jittered retry around one transient-I/O operation. \p Op is
/// attempted up to three times; every re-attempt bumps the
/// `cachestore.retries` counter and sleeps a doubling ~1-3 ms backoff
/// with deterministic jitter (seeded from \p Site, so tests replay). The
/// operation owns its own cleanup between attempts.
template <typename Fn> bool withRetries(Fn &&Op, const std::string &Site) {
  constexpr unsigned MaxAttempts = 3;
  SplitMix64 Jitter(fnv1a64(Site));
  for (unsigned Attempt = 0;; ++Attempt) {
    if (Op())
      return true;
    if (Attempt + 1 == MaxAttempts)
      return false;
    globalMetrics().counter("cachestore.retries").add();
    unsigned DelayUs = (1000u << Attempt) +
                       static_cast<unsigned>(Jitter.nextBelow(1000));
    std::this_thread::sleep_for(std::chrono::microseconds(DelayUs));
  }
}

/// replaceFile with recovery: the temporary is rebuilt from scratch each
/// attempt, so a failed write or rename leaves nothing to clean up but
/// the temp file replaceFile already removed.
bool replaceWithRetries(const std::string &Path, const std::string &Doc,
                        std::string *Error) {
  return withRetries([&] { return replaceFile(Path, Doc, Error); }, Path);
}

/// Appends framed \p Lines to \p Path behind a leading newline, lock-free,
/// as one O_APPEND write retried with backoff. Loads skip empty lines, so
/// whatever fragment another writer's torn append left at the tail ends
/// up a line of its own that fails its CRC and is quarantined; it never
/// fuses with a record save() acknowledged. No check of the tail can
/// promise that: another writer can tear it between the check and the
/// append. A failed attempt may have landed part of the batch; the
/// retry's own leading newline cuts that fragment off, and any complete
/// lines it did land become duplicates the loaders fold away. Empty
/// \p Lines touch nothing.
bool appendLines(const std::string &Path, const std::string &Lines,
                 std::string *Error) {
  if (Lines.empty())
    return true;
  std::string Doc = "\n" + Lines;
  return withRetries([&] { return appendToFile(Path, Doc, Error); }, Path);
}

/// Preserves damaged lines by appending them verbatim to the store
/// file's `.quarantine` sibling — corruption is evidence (of bad RAM, a
/// lying NFS server, a half-dead disk), and evidence should survive the
/// repair that removes it from the store. Deduplicated against the
/// quarantine's existing lines so re-opening the same damaged store does
/// not grow the file. Deliberately plain, unfaulted I/O: quarantining
/// runs on load paths, and routing it through the injected append sites
/// would shift every later site's deterministic call index.
class Quarantine {
public:
  explicit Quarantine(const std::string &StorePath)
      : QPath(StorePath + ".quarantine") {}

  void add(const std::string &RawLine) {
    if (RawLine.empty())
      return;
    if (!Loaded) {
      Loaded = true;
      std::ifstream In(QPath, std::ios::binary);
      std::string Line;
      while (In && std::getline(In, Line))
        Existing.insert(Line);
    }
    if (!Existing.insert(RawLine).second)
      return;
    std::ofstream Out(QPath, std::ios::binary | std::ios::app);
    Out << RawLine << "\n";
  }

private:
  std::string QPath;
  std::set<std::string> Existing;
  bool Loaded = false;
};

/// What one RecordFile::scan() saw.
struct ScanStats {
  bool Present = false;       ///< Readable (exists, no injected EIO).
  bool SawFirstLine = false;  ///< Had at least one non-empty line.
  bool HeaderOk = false;      ///< Header framed, parsed, and accepted.
  bool HeaderDamaged = false; ///< Header failed its framing/CRC check.
  size_t CrcFailures = 0;     ///< Framing/CRC failures, header included.
  size_t Damaged = 0;         ///< Record lines not servable (CRC or JSON).
  size_t Stranded = 0;        ///< Record lines under an unusable header.
};

/// One of the four store files, described once: fsck's name for it,
/// where it lives, what its header says, and how a record yields its
/// key. A file is a header line followed by framed record lines; every
/// read of it is scan(), every write rewrite(), save() or appendLines().
struct RecordFile {
  const char *Name;
  std::string Path;
  const char *Schema;
  std::string (*Fingerprint)();
  /// Classifies a CRC-valid JSON record for fsck: false means
  /// semantically unreadable (corrupt), true yields its dedup key.
  bool (*KeyOf)(const JsonValue &, std::string &);
  /// The journal's header also pins the run configuration token; an
  /// unset Config accepts any token.
  bool PinsConfig = false;
  std::optional<std::string> Config = std::nullopt;

  using OnRecord =
      std::function<void(const JsonValue &V, const std::string &RawLine)>;

  std::string header() const {
    JsonWriter W(/*Pretty=*/false);
    W.beginObject();
    W.field("schema", Schema);
    W.field("fingerprint", Fingerprint());
    if (PinsConfig) {
      assert(Config && "a journal header is written under one token");
      W.field("config", *Config);
    }
    W.endObject();
    return framedLine(W.str());
  }

  bool acceptsHeader(const JsonValue &V) const {
    const JsonValue *S = V.find("schema");
    const JsonValue *Fp = V.find("fingerprint");
    if (!S || S->kind() != JsonValue::Kind::String || S->string() != Schema ||
        !Fp || Fp->kind() != JsonValue::Kind::String ||
        Fp->string() != Fingerprint())
      return false;
    if (!PinsConfig)
      return true;
    const JsonValue *C = V.find("config");
    return C && C->kind() == JsonValue::Kind::String &&
           (!Config || C->string() == *Config);
  }

  /// Whether the file's first non-empty line is this file's header —
  /// save()'s probe. Plain, unfaulted I/O, so probing shifts no fault
  /// site's call index.
  bool headerOnDisk() const {
    std::ifstream In(Path, std::ios::binary);
    std::string Line;
    while (std::getline(In, Line) && Line.empty()) {
    }
    std::string_view Payload;
    JsonValue V;
    return !Line.empty() && unframeRecord(Line, Payload) &&
           JsonValue::parse(std::string(Payload), V) && acceptsHeader(V);
  }

  /// Walks the file. The first non-empty line is the header: it must
  /// unframe, parse, and be accepted for any record to be served;
  /// otherwise the remaining lines are merely counted as stranded and
  /// \p Record never fires. Record lines that fail the frame check or
  /// JSON parse are counted, reported to the `cachestore.crc_mismatch`
  /// metric (frame failures), and quarantined. Read-side fault sites:
  /// `cache.load.eio` fails the whole read (the file loads as absent),
  /// `cache.load.flip` flips one bit in a line about to be checked —
  /// which the CRC must catch.
  ScanStats scan(const OnRecord &Record,
                 std::string *RawHeader = nullptr) const {
    ScanStats S;
    if (FaultInjector::shouldFail("cache.load.eio"))
      return S; // transient EIO: this load sees no file
    std::ifstream In(Path, std::ios::binary);
    if (!In)
      return S;
    S.Present = true;
    Quarantine Q(Path);
    std::string Line;
    while (std::getline(In, Line)) {
      if (Line.empty())
        continue;
      if (FaultInjector::shouldFail("cache.load.flip"))
        Line[Line.size() / 2] ^= 0x01;
      std::string_view Payload;
      if (!S.SawFirstLine) {
        S.SawFirstLine = true;
        if (!unframeRecord(Line, Payload)) {
          // A damaged header is counted but not quarantined: with no
          // trusted header there is no trusted world to sort lines into,
          // and the whole file is already preserved in place (loads
          // never modify the store; only a --repair rewrite would).
          S.HeaderDamaged = true;
          ++S.CrcFailures;
          globalMetrics().counter("cachestore.crc_mismatch").add();
          continue;
        }
        JsonValue V;
        if (!JsonValue::parse(std::string(Payload), V) || !acceptsHeader(V))
          continue; // stale header: keep scanning, serve nothing
        S.HeaderOk = true;
        if (RawHeader)
          *RawHeader = Line;
        continue;
      }
      if (!S.HeaderOk) {
        ++S.Stranded;
        continue;
      }
      if (!unframeRecord(Line, Payload)) {
        ++S.CrcFailures;
        ++S.Damaged;
        globalMetrics().counter("cachestore.crc_mismatch").add();
        Q.add(Line);
        continue;
      }
      JsonValue V;
      if (!JsonValue::parse(std::string(Payload), V)) {
        ++S.Damaged;
        Q.add(Line);
        continue;
      }
      Record(V, Line);
    }
    return S;
  }

  /// Replaces the whole file with \p Doc (temporary + rename, retried)
  /// under `<file>.lock`, so two processes rebuilding the same file
  /// serialize instead of last-rename-wins silently dropping one side's
  /// survivors.
  bool rewrite(const std::string &Doc, unsigned LockWaitMs,
               std::string *Error) const {
    FileLock Lock;
    return Lock.acquire(Path + ".lock", LockWaitMs, Error) &&
           replaceWithRetries(Path, Doc, Error);
  }

  /// save()'s way onto disk. \p Lines returns framed record lines: with
  /// All every record this process holds, otherwise only those the file
  /// lacks. A file that carries its header gets the lacking lines
  /// appended. Any other file — missing, or with a damaged or stale
  /// header — holds nothing worth keeping and is laid down anew (header
  /// plus every record) under the lock, after the header is probed once
  /// more under it: when two writers meet the same missing file, the
  /// second appends to the first one's file instead of renaming its
  /// records away. Only such a rename bumps `cachestore.save_rewrites`.
  bool save(const std::function<std::string(bool All)> &Lines,
            unsigned LockWaitMs, std::string *Error) const {
    if (headerOnDisk())
      return appendLines(Path, Lines(false), Error);
    FileLock Lock;
    if (!Lock.acquire(Path + ".lock", LockWaitMs, Error))
      return false;
    if (headerOnDisk())
      return appendLines(Path, Lines(false), Error);
    if (!replaceWithRetries(Path, header() + Lines(true), Error))
      return false;
    globalMetrics().counter("cachestore.save_rewrites").add();
    return true;
  }
};

/// Hashes every device's power table and timing model into \p H: the
/// shared ingredient of the result and incumbent fingerprints.
void hashDeviceRegistry(uint64_t &H) {
  for (const DeviceInfo &D : deviceRegistry()) {
    hashBytes(H, D.Name);
    D.Model.forEachActiveValue([&H](double V) { hashDouble(H, V); });
    hashDouble(H, D.Model.SleepMilliWatts);
    hashDouble(H, D.Model.ClockHz);
    const TimingModel &T = D.Timing;
    for (unsigned V : {T.AluCycles, T.MulCycles, T.MlaCycles, T.DivCycles,
                       T.LoadCycles, T.StoreCycles, T.BranchRefillCycles,
                       T.BranchIssueCycles, T.CallCycles, T.CallRegCycles,
                       T.BxCycles, T.ItCycles, T.SkippedCycles,
                       T.NopCycles, T.RamContentionStall,
                       T.FlashWaitStates})
      hashBytes(H, formatString("%u", V));
  }
}

/// One serialized incumbent payload: the solve-group key, the model
/// energy its assignment achieves, and the assignment as a block
/// bitstring. Framing is the caller's job.
std::string incumbentPayload(const std::string &Group,
                             const IncumbentStore::Entry &E) {
  std::string Bits(E.InRam.size(), '0');
  for (size_t I = 0; I != E.InRam.size(); ++I)
    if (E.InRam[I])
      Bits[I] = '1';
  JsonWriter W(/*Pretty=*/false);
  W.beginObject();
  W.field("group", Group);
  W.field("energy_mj", E.EnergyMilliJoules);
  W.field("blocks", Bits);
  W.endObject();
  return W.str();
}

bool parseIncumbent(const JsonValue &V, std::string &Group,
                    IncumbentStore::Entry &E) {
  if (V.kind() != JsonValue::Kind::Object)
    return false;
  const JsonValue *G = V.find("group");
  const JsonValue *En = V.find("energy_mj");
  const JsonValue *B = V.find("blocks");
  if (!G || G->kind() != JsonValue::Kind::String || !En ||
      En->kind() != JsonValue::Kind::Number || !B ||
      B->kind() != JsonValue::Kind::String)
    return false;
  Group = G->string();
  E.EnergyMilliJoules = En->number();
  const std::string &Bits = B->string();
  E.InRam.assign(Bits.size(), false);
  for (size_t I = 0; I != Bits.size(); ++I) {
    if (Bits[I] == '1')
      E.InRam[I] = true;
    else if (Bits[I] != '0')
      return false;
  }
  return !Group.empty();
}

bool resultKey(const JsonValue &V, std::string &Key) {
  JobResult R;
  if (!parseJobResult(V, R))
    return false;
  Key = R.Spec.cacheKey();
  return true;
}

bool profileKey(const JsonValue &V, std::string &Key) {
  ExecutionProfile P;
  return parseExecutionProfile(V, Key, P);
}

bool incumbentKey(const JsonValue &V, std::string &Key) {
  IncumbentStore::Entry E;
  return parseIncumbent(V, Key, E);
}

std::string joinPath(const std::string &Dir, const char *FileName) {
  return (std::filesystem::path(Dir) / FileName).string();
}

std::string dirOf(const std::string &Path) {
  return std::filesystem::path(Path).parent_path().string();
}

// The four store files. Results and incumbents answer to the device
// registry (it shapes the power numbers and the placement models);
// profiles only to the simulator semantics; the journal to the registry
// plus the run configuration.
RecordFile resultsFile(const std::string &Dir) {
  return {"results", joinPath(Dir, "results.jsonl"), StoreSchema,
          CacheStore::fingerprint, resultKey};
}

RecordFile profilesFile(const std::string &Dir) {
  return {"profiles", joinPath(Dir, "profiles.jsonl"), ProfileSchema,
          CacheStore::profileFingerprint, profileKey};
}

RecordFile incumbentsFile(const std::string &Dir) {
  return {"incumbents", joinPath(Dir, "incumbents.jsonl"), IncumbentSchema,
          CacheStore::incumbentFingerprint, incumbentKey};
}

RecordFile journalFile(const std::string &Dir,
                       std::optional<std::string> Config) {
  return {"progress",       joinPath(Dir, "progress.jsonl"),
          JournalSchema,    CacheStore::fingerprint,
          resultKey,        /*PinsConfig=*/true,
          std::move(Config)};
}

bool notOpened(const std::string &Path, std::string *Error) {
  if (!Path.empty())
    return false;
  if (Error)
    *Error = "cache store was never opened";
  return true;
}

} // namespace

std::string CacheStore::fingerprint() {
  uint64_t H = Fnv1aOffset;
  hashBytes(H, StoreSchema);
  hashBytes(H, ReportSchema);
  hashDeviceRegistry(H);
  return formatString("%016llx", static_cast<unsigned long long>(H));
}

std::string CacheStore::incumbentFingerprint() {
  uint64_t H = Fnv1aOffset;
  hashBytes(H, IncumbentSchema);
  hashDeviceRegistry(H);
  return formatString("%016llx", static_cast<unsigned long long>(H));
}

std::string CacheStore::profileFingerprint() {
  uint64_t H = Fnv1aOffset;
  hashBytes(H, ProfileSchema);
  hashBytes(H, SimSemanticsTag);
  return formatString("%016llx", static_cast<unsigned long long>(H));
}

bool CacheStore::open(const std::string &Dir, std::string *Error) {
  TraceSpan Span("cache.load", "cache");
  Loaded = Skipped = LoadedProfs = SkippedProfs = 0;
  LoadedIncs = SkippedIncs = 0;
  CrcMismatches = 0;
  Invalidated = false;
  PersistedKeys.clear();
  PersistedProfKeys.clear();
  PersistedIncEnergy.clear();
  SweptTemps.clear();

  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC) {
    if (Error)
      *Error = "cannot create cache directory '" + Dir +
               "': " + EC.message();
    return false;
  }
  RecordFile Results = resultsFile(Dir);
  RecordFile Profs = profilesFile(Dir);
  RecordFile Incs = incumbentsFile(Dir);
  Path = Results.Path;
  ProfPath = Profs.Path;
  IncPath = Incs.Path;

  // Sweep orphaned rewrite temporaries: a writer killed between
  // temp-write and rename leaks `<file>.tmp.<pid>` forever. Only a dead
  // writer's temps go — a live shard's in-flight rewrite must not have
  // its temporary pulled out from under the rename (probed with
  // kill(pid, 0); EPERM means alive-but-not-ours, equally untouchable).
  {
    std::error_code DirEC;
    std::filesystem::directory_iterator It(Dir, DirEC);
    if (!DirEC) {
      for (const auto &Entry : It) {
        std::error_code StatEC;
        if (!Entry.is_regular_file(StatEC) || StatEC)
          continue;
        std::string Name = Entry.path().filename().string();
        size_t Pos = Name.rfind(".tmp.");
        if (Pos == std::string::npos || Pos + 5 >= Name.size())
          continue;
        std::string PidStr = Name.substr(Pos + 5);
        if (PidStr.find_first_not_of("0123456789") != std::string::npos)
          continue;
        long Pid = std::strtol(PidStr.c_str(), nullptr, 10);
        if (Pid <= 0 || Pid == static_cast<long>(::getpid()))
          continue;
        if (::kill(static_cast<pid_t>(Pid), 0) == 0 || errno == EPERM)
          continue; // writer still alive: its rename is coming
        std::error_code RmEC;
        std::filesystem::remove(Entry.path(), RmEC);
        if (!RmEC)
          SweptTemps.push_back(Name);
      }
    }
    std::sort(SweptTemps.begin(), SweptTemps.end());
  }

  ScanStats S = Results.scan([&](const JsonValue &V, const std::string &) {
    JobResult R;
    if (!parseJobResult(V, R)) {
      ++Skipped;
      return;
    }
    // Degraded or failed entries are never servable from this store (we
    // never write them; an external tool may have). Skipped *before* the
    // dedup insert, so a valid Optimal entry appended later for the same
    // key still loads.
    if (!R.ok() || R.SolveOutcome != SolveStatus::Optimal) {
      ++Skipped;
      return;
    }
    // Concurrent appenders may have raced the same configuration to
    // disk; the records are deterministic, so duplicates are mere bytes
    // — first one counts, the rest are ignored until compact() folds
    // them away.
    std::string Key = R.Spec.cacheKey();
    if (!PersistedKeys.insert(Key).second)
      return;
    Cache.insert(Key, R);
    ++Loaded;
  });
  Skipped += S.Damaged;
  CrcMismatches += S.CrcFailures;
  // A results file whose header is damaged, stale, or from another
  // schema generation is a different world: discard everything.
  Invalidated = S.SawFirstLine && !S.HeaderOk;
  if (Invalidated)
    PersistedKeys.clear();

  // A profile file under stale simulator semantics serves nothing.
  S = Profs.scan([&](const JsonValue &V, const std::string &) {
    std::string Key;
    auto P = std::make_shared<ExecutionProfile>();
    if (!parseExecutionProfile(V, Key, *P)) {
      ++SkippedProfs;
      return;
    }
    if (!PersistedProfKeys.insert(Key).second)
      return;
    Profiles.preload(Key, std::move(P));
    ++LoadedProfs;
  });
  SkippedProfs += S.Damaged;
  CrcMismatches += S.CrcFailures;

  // Incumbents from a different model world would only miss.
  S = Incs.scan([&](const JsonValue &V, const std::string &) {
    std::string Group;
    IncumbentStore::Entry E;
    if (!parseIncumbent(V, Group, E)) {
      ++SkippedIncs;
      return;
    }
    // Concurrent appenders race improved entries to disk; offer()'s
    // best-wins rule folds duplicates whatever order they load in.
    Incumbents.offer(Group, E.InRam, E.EnergyMilliJoules);
    auto It = PersistedIncEnergy.find(Group);
    if (It == PersistedIncEnergy.end())
      PersistedIncEnergy.emplace(Group, E.EnergyMilliJoules);
    else
      It->second = std::min(It->second, E.EnergyMilliJoules);
    ++LoadedIncs;
  });
  SkippedIncs += S.Damaged;
  CrcMismatches += S.CrcFailures;
  return true;
}

bool CacheStore::writeFiles(unsigned Files, bool Rewrite,
                            std::string *Error) {
  std::string Dir = dirOf(Path);
  // save() extends each file with what it lacks; compaction lays the
  // file down anew from memory.
  auto Write = [&](const RecordFile &File, const auto &Lines) {
    return Rewrite ? File.rewrite(File.header() + Lines(true), LockWaitMs,
                                  Error)
                   : File.save(Lines, LockWaitMs, Error);
  };
  if (Files & ResultsBit) {
    std::vector<std::string> Keys;
    auto Lines = [&](bool All) {
      std::string Doc;
      for (const auto &[Key, R] : Cache.snapshot()) {
        // Failures are not durable: they may stem from a bug the next
        // build fixes, and the fingerprint tracks the device tables, not
        // the code. Serving a stale failure forever is worse than
        // re-running the job. Degraded (limit-truncated) results follow
        // the same rule — a best-effort answer must not be served where
        // a later unlimited run could compute the true optimum; the
        // journal, not this cache, is where degraded results persist.
        if (!R.ok() || R.SolveOutcome != SolveStatus::Optimal ||
            (!All && PersistedKeys.count(Key)))
          continue;
        JsonWriter W(/*Pretty=*/false);
        writeJobResult(W, R);
        Doc += framedLine(W.str());
        Keys.push_back(Key);
      }
      return Doc;
    };
    if (!Write(resultsFile(Dir), Lines))
      return false;
    PersistedKeys.insert(Keys.begin(), Keys.end());
  }
  if (Files & ProfilesBit) {
    std::vector<std::string> Keys;
    auto Lines = [&](bool All) {
      std::string Doc;
      for (const auto &[Key, P] : Profiles.snapshot()) {
        if (!All && PersistedProfKeys.count(Key))
          continue;
        JsonWriter W(/*Pretty=*/false);
        writeExecutionProfile(W, Key, *P);
        Doc += framedLine(W.str());
        Keys.push_back(Key);
      }
      return Doc;
    };
    if (!Write(profilesFile(Dir), Lines))
      return false;
    PersistedProfKeys.insert(Keys.begin(), Keys.end());
  }
  if (Files & IncumbentsBit) {
    std::vector<std::pair<std::string, double>> Energies;
    auto Lines = [&](bool All) {
      std::string Doc;
      for (const auto &[Group, E] : Incumbents.snapshot()) {
        // Only improvements are appended: load-time best-wins folding
        // makes a re-appended better entry supersede the old line.
        auto It = PersistedIncEnergy.find(Group);
        if (!All && It != PersistedIncEnergy.end() &&
            E.EnergyMilliJoules >= It->second)
          continue;
        Doc += framedLine(incumbentPayload(Group, E));
        Energies.push_back({Group, E.EnergyMilliJoules});
      }
      return Doc;
    };
    if (!Write(incumbentsFile(Dir), Lines))
      return false;
    for (const auto &[Group, Energy] : Energies)
      PersistedIncEnergy[Group] = Energy;
  }
  return true;
}

bool CacheStore::save(std::string *Error) {
  TraceSpan Span("cache.append", "cache");
  return !notOpened(Path, Error) &&
         writeFiles(ResultsBit | ProfilesBit | IncumbentsBit,
                    /*Rewrite=*/false, Error);
}

bool CacheStore::compact(std::string *Error) {
  TraceSpan Span("cache.compact", "cache");
  return !notOpened(Path, Error) &&
         writeFiles(ResultsBit | ProfilesBit | IncumbentsBit,
                    /*Rewrite=*/true, Error);
}

bool CacheStore::compactIncumbents(std::string *Error) {
  TraceSpan Span("cache.compact", "cache");
  return !notOpened(Path, Error) &&
         writeFiles(IncumbentsBit, /*Rewrite=*/true, Error);
}

bool CacheStore::gcProfiles(uint64_t MaxBytes, ProfileGcStats &Stats,
                            std::string *Error) {
  TraceSpan Span("cache.compact", "cache");
  if (notOpened(Path, Error))
    return false;
  Stats = ProfileGcStats();
  RecordFile File = profilesFile(dirOf(Path));

  // The whole read-dedupe-rewrite cycle runs under the file's lock: a
  // concurrent GC or --repair reading the same generation would
  // otherwise decide survivorship from bytes the other is about to
  // replace.
  FileLock Lock;
  if (!Lock.acquire(File.Path + ".lock", LockWaitMs, Error))
    return false;

  {
    std::error_code EC;
    uint64_t Size = std::filesystem::file_size(File.Path, EC);
    Stats.BytesBefore = EC ? 0 : Size;
  }

  // Collect the surviving (key, raw line) pairs in file order. Lines are
  // kept verbatim, framing included — GC must not perturb bytes it
  // decided to keep.
  std::vector<std::pair<std::string, std::string>> Entries;
  ScanStats S = File.scan([&](const JsonValue &V, const std::string &Raw) {
    std::string Key;
    if (!profileKey(V, Key)) {
      ++Stats.DroppedInvalid;
      return;
    }
    Entries.push_back({std::move(Key), Raw});
  });
  CrcMismatches += S.CrcFailures;
  Stats.DroppedInvalid += S.Damaged + S.Stranded;
  if (S.SawFirstLine && !S.HeaderOk)
    ++Stats.DroppedInvalid; // stale or damaged header: every entry goes

  // Duplicate keys: concurrent appenders may have raced; the newest
  // (latest-appended) occurrence wins, matching what a load would use
  // after compaction.
  {
    std::set<std::string> Seen;
    std::vector<std::pair<std::string, std::string>> Deduped;
    for (auto It = Entries.rbegin(); It != Entries.rend(); ++It) {
      if (!Seen.insert(It->first).second) {
        ++Stats.DroppedInvalid;
        continue;
      }
      Deduped.push_back(std::move(*It));
    }
    std::reverse(Deduped.begin(), Deduped.end()); // back to file order
    Entries = std::move(Deduped);
  }

  // Size cap: evict from the front (oldest appends) until the rewritten
  // file — header plus surviving lines — fits.
  std::string Doc = File.header();
  if (MaxBytes != 0) {
    uint64_t Need = Doc.size();
    for (const auto &[Key, Line] : Entries)
      Need += Line.size() + 1;
    size_t Drop = 0;
    while (Drop != Entries.size() && Need > MaxBytes) {
      Need -= Entries[Drop].second.size() + 1;
      ++Drop;
    }
    Stats.Evicted = Drop;
    Entries.erase(Entries.begin(),
                  Entries.begin() + static_cast<ptrdiff_t>(Drop));
  }

  std::set<std::string> Keys;
  for (const auto &[Key, Line] : Entries) {
    Doc += Line + "\n";
    Keys.insert(Key);
  }
  if (!replaceWithRetries(File.Path, Doc, Error))
    return false;
  Stats.Kept = Entries.size();
  Stats.BytesAfter = Doc.size();
  PersistedProfKeys = std::move(Keys);
  return true;
}

bool CacheStore::beginJournal(const std::string &ConfigToken, bool Resume,
                              std::string *Error) {
  if (notOpened(Path, Error))
    return false;
  RecordFile Journal = journalFile(dirOf(Path), ConfigToken);
  JournalPath = Journal.Path;
  JournalResults.clear();
  SkippedJournal = 0;

  if (Resume) {
    // Different world or solver limits: the header does not match and
    // nothing replays.
    std::set<std::string> Seen;
    ScanStats S = Journal.scan([&](const JsonValue &V, const std::string &) {
      JobResult R;
      if (!parseJobResult(V, R)) {
        ++SkippedJournal;
        return;
      }
      // A retried short write may have left the same job twice; the
      // first occurrence is the one the interrupted run reported.
      if (!Seen.insert(R.Spec.cacheKey()).second)
        return;
      JournalResults.push_back(std::move(R));
    });
    SkippedJournal += S.Damaged;
    CrcMismatches += S.CrcFailures;
    // Extend the journal as it stands: a torn tail a killed writer left
    // behind stays a line of its own, since every append opens a fresh
    // one.
    if (S.HeaderOk)
      return true;
  }
  return Journal.rewrite(Journal.header(), LockWaitMs, Error);
}

bool CacheStore::appendJournal(const JobResult &R, std::string *Error) {
  if (JournalPath.empty())
    return true;
  JsonWriter W(/*Pretty=*/false);
  writeJobResult(W, R);
  return appendLines(JournalPath, framedLine(W.str()), Error);
}

void CacheStore::clearJournal() {
  if (JournalPath.empty())
    return;
  std::remove(JournalPath.c_str());
  JournalPath.clear();
}

bool CacheStore::fsck(bool Repair, FsckReport &Report, std::string *Error) {
  TraceSpan Span("cache.fsck", "cache");
  if (notOpened(Path, Error))
    return false;
  Report = FsckReport();
  Report.OrphanedTemps = SweptTemps;

  // The journal is checked under *any* configuration token: fsck is a
  // maintenance pass, and which solver limits an interrupted run used is
  // the resume path's business, not an integrity question. Its raw
  // header and servable lines are kept for its repair, below; every
  // other file is paired with the writeFiles() bit that repairs it.
  std::string Dir = dirOf(Path);
  const std::pair<RecordFile, unsigned> Files[] = {
      {resultsFile(Dir), ResultsBit},
      {profilesFile(Dir), ProfilesBit},
      {incumbentsFile(Dir), IncumbentsBit},
      {journalFile(Dir, std::nullopt), 0}};
  const RecordFile &Journal = Files[3].first;
  std::string JournalHeader;
  std::vector<std::string> JournalLines;
  unsigned Damaged = 0;
  for (const auto &[File, Bit] : Files) {
    bool IsJournal = &File == &Journal;
    FsckFile F;
    F.Name = File.Name;
    F.Path = File.Path;
    std::set<std::string> Keys;
    ScanStats S = File.scan(
        [&](const JsonValue &V, const std::string &Raw) {
          std::string Key;
          if (!File.KeyOf(V, Key)) {
            ++F.Corrupt;
            return;
          }
          if (!Keys.insert(Key).second) {
            ++F.Duplicate;
            return;
          }
          ++F.Valid;
          if (IsJournal)
            JournalLines.push_back(Raw);
        },
        IsJournal ? &JournalHeader : nullptr);
    CrcMismatches += S.CrcFailures;
    F.Present = S.Present;
    F.HeaderOk = !S.SawFirstLine || S.HeaderOk;
    F.Corrupt += S.Damaged + (S.HeaderDamaged ? 1 : 0);
    F.Stale = S.Stranded;
    // A header that framed correctly but names another world is a stale
    // line, not a corrupt one.
    if (S.SawFirstLine && !S.HeaderOk && !S.HeaderDamaged)
      ++F.Stale;
    if (F.damaged())
      Damaged |= Bit;
    Report.Files.push_back(F);
  }

  if (!Repair)
    return true;

  // Results, profiles, and incumbents repair from what open() served —
  // the locked compaction rewrite: valid records only, deduplicated,
  // fresh framed header. Corrupt lines were quarantined during the walk;
  // lines stranded under an untrusted header fall with it.
  if (Damaged && !writeFiles(Damaged, /*Rewrite=*/true, Error))
    return false;

  // The journal is not loaded by open(), so it repairs from its own
  // walk: header kept verbatim (the pinned configuration must survive
  // untouched for --resume to honour it), servable lines kept verbatim
  // first-wins. A journal whose header cannot be trusted is removed —
  // replaying records from an unknown world is worse than recomputing.
  const FsckFile &FJ = Report.Files[3];
  if (FJ.Present && !FJ.HeaderOk) {
    std::remove(Journal.Path.c_str());
  } else if (FJ.Present && FJ.damaged()) {
    std::string Doc = JournalHeader + "\n";
    for (const std::string &Line : JournalLines)
      Doc += Line + "\n";
    if (!Journal.rewrite(Doc, LockWaitMs, Error))
      return false;
  }

  // Orphaned temporaries were already swept by open(); they appear in
  // the report so the operator knows a writer died mid-rewrite.
  return true;
}
