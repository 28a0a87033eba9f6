"""Build file of the benchmark: compiles the program (src/main/scala) and the
benchmark's own code (perfbench/src) with the Scala compiler that ships in the
Spark distribution whose jars build.sbt names, into
.bench_build/classes-<source digest>.

    python3 perfbench/build.py      # build (no-op when up to date)

A build is reused while no source file changes; the directory name carries
the digest of every compiled file.
"""

import hashlib
import os
import pathlib
import re
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE_DIRS = [ROOT / "src" / "main" / "scala", ROOT / "perfbench" / "src"]
BUILD_DIR = ROOT / ".bench_build"


def spark_jars():
    """The Spark jars directory that build.sbt compiles the program against."""
    sbt = ROOT / "build.sbt"
    m = re.search(r'val sparkJars = file\("([^"]+)"\)', sbt.read_text()) if sbt.is_file() else None
    if not m:
        raise SystemExit("perfbench: build.sbt does not name the Spark jars directory (val sparkJars)")
    return pathlib.Path(m.group(1))


def sources():
    missing = [str(d.relative_to(ROOT)) for d in SOURCE_DIRS if not d.is_dir()]
    if missing:
        raise SystemExit(f"perfbench: source directories missing: {', '.join(missing)}")
    files = sorted(p for d in SOURCE_DIRS for p in d.rglob("*.scala"))
    if not any(SOURCE_DIRS[0] in p.parents for p in files):
        raise SystemExit("perfbench: no program sources under src/main/scala")
    return files


def digest(files):
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def classpath(classes):
    return f"{classes}{os.pathsep}{spark_jars()}/*"


def build():
    """Compile if needed; return (classes dir, source digest)."""
    files = sources()
    jars = spark_jars()
    if not (jars / "spark-core_2.13-4.1.2.jar").is_file():
        raise SystemExit(f"perfbench: Spark 4.1.2 jars not found in {jars}")
    tag = digest(files)
    classes = BUILD_DIR / f"classes-{tag}"
    if (classes / "BUILT").is_file():
        return classes, tag
    tmp = BUILD_DIR / f"classes-{tag}.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={BUILD_DIR}",
           "-cp", f"{jars}/*", "scala.tools.nsc.Main",
           "-nowarn", "-d", str(tmp), "-classpath", f"{jars}/*"] + [str(p) for p in files]
    print(f"perfbench: compiling {len(files)} files into {classes.name}", file=sys.stderr)
    subprocess.run(cmd, check=True, timeout=850)
    (tmp / "BUILT").write_text(tag + "\n")
    shutil.rmtree(classes, ignore_errors=True)
    tmp.rename(classes)
    for old in BUILD_DIR.glob("classes-*"):
        if old != classes:
            shutil.rmtree(old, ignore_errors=True)
    return classes, tag


if __name__ == "__main__":
    print(build()[0])
